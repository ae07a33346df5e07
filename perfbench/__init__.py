"""Observatory benchmark: three closed-loop workloads against the
deployed ``repro`` processes, every output checked against the serial
library oracle.  ``python3 perfbench/run.py --help`` runs it; see
``perfbench/README.md`` for workloads, metrics and the traced mode."""
