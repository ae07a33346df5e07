"""Max-flow analyzer and the stakeholder report."""

import os
import subprocess
import sys

import pytest

from repro.routing import FlowAnalyzer
from repro.observatory import generate_report
from repro.outages import march_2024_scenario


@pytest.fixture(scope="module")
def flows(topo, phys):
    return FlowAnalyzer(topo, phys)


class TestFlows:
    def test_routing_service_and_fleet_do_not_import_networkx(self):
        # Only max-flow needs networkx; every routing process would
        # otherwise pay for loading it.
        code = ("import sys, repro.routing, repro.service.server, "
                "repro.fleet; print('networkx' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env={
            **os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_core_reachable_from_coastal_africa(self, flows):
        assert flows.capacity_to_core("GH") > 0
        assert flows.capacity_to_core("KE") > 0

    def test_landlocked_capacity_small(self, flows):
        """Landlocked countries are bottlenecked by terrestrial links."""
        assert flows.capacity_to_core("RW") < \
            flows.capacity_to_core("KE") / 10

    def test_cut_reduces_flow_for_affected(self, topo, flows):
        west, _ = march_2024_scenario(topo)
        assert flows.flow_severity("GH", west) > 0
        assert flows.flow_severity("KE", west) == pytest.approx(0.0)

    def test_total_cut_disconnects_islands(self, topo, flows):
        all_cables = [c.cable_id for c in topo.cables]
        assert flows.is_disconnected("MU", all_cables)
        # Landlocked mainland is also cut off without any cables.
        assert flows.is_disconnected("RW", all_cables)

    def test_severity_bounds(self, topo, flows):
        west, _ = march_2024_scenario(topo)
        for cc in ("GH", "CI", "NG", "ZA"):
            assert 0.0 <= flows.flow_severity(cc, west) <= 1.0

    def test_flow_monotone_in_cuts(self, topo, flows):
        west, _ = march_2024_scenario(topo)
        partial = flows.capacity_to_core("GH", west[:2])
        full = flows.capacity_to_core("GH", west)
        assert full <= partial <= flows.capacity_to_core("GH")


class TestStakeholderReport:
    @pytest.fixture(scope="class")
    def report(self, topo):
        return generate_report(topo, max_pairs=200)

    def test_headline_numbers_populated(self, report):
        assert 0.0 < report.detour_rate <= 1.0
        assert 0.0 < report.content_locality < 1.0
        assert 0.0 <= report.compliance_rate < 1.0
        assert report.most_mature_region == "Southern Africa"

    def test_text_sections(self, report):
        for marker in ("QUARTERLY CONNECTIVITY REPORT",
                       "Headline indicators",
                       "Regional maturity ranking",
                       "Measurement readiness", "Watchdog:"):
            assert marker in report.text

    def test_title_underline_single(self, report):
        assert report.text.count("QUARTERLY CONNECTIVITY REPORT") == 1

    def test_consistent_with_direct_analysis(self, topo, report):
        from repro.analysis import analyze_content_locality
        from repro.datasets import run_pulse_study
        direct = analyze_content_locality(run_pulse_study(topo))
        assert report.content_locality == pytest.approx(
            direct.overall_africa_share())
