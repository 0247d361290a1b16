"""Certificate reports: row checks and the timed report context."""

import time

import pytest

from chaoslab import CertificateReport, InvalidArgumentError
from chaoslab.report import timed_report


class TestAdd:
    def test_rows_and_verdicts(self):
        r = CertificateReport("rows")
        assert r.add("a", 1, "<=", 1.5).passed
        assert r.add("b", 2.0, ">=", 2.5, tol=0.5).passed
        assert not r.add("c", 1.0, "==", 1.1, tol=0.05).passed
        info = r.add("d", 7, "info")
        assert (info.value, info.bound, info.passed) == (7.0, None, True)
        assert [c.quantity for c in r.checks] == ["a", "b", "c", "d"]
        assert not r.verdict

    @pytest.mark.parametrize("comparison", ["<=", ">=", "=="])
    def test_missing_bound_refused(self, comparison):
        r = CertificateReport("bounds")
        with pytest.raises(InvalidArgumentError, match="needs a bound"):
            r.add("x", 1.0, comparison)
        assert r.checks == []

    def test_quantity_of_a_missing_row(self):
        r = CertificateReport("rows")
        r.add("a", 1.0, "info")
        assert r.quantity("a") == 1.0
        with pytest.raises(KeyError, match="b"):
            r.quantity("b")

    def test_unknown_comparison_refused(self):
        r = CertificateReport("comparisons")
        with pytest.raises(InvalidArgumentError, match="unknown comparison"):
            r.add("x", 1.0, "<", 2.0)
        assert r.checks == []


class TestTimedReport:
    def test_runtime_and_inputs(self):
        inputs = {"n": 3}
        with timed_report("timed", inputs) as report:
            time.sleep(0.01)
            report.add("x", 1.0)
        assert report.name == "timed" and report.inputs == inputs
        assert report.inputs is not inputs
        assert report.runtime >= 0.01
        assert [c.quantity for c in report.checks] == ["x"]

    def test_reraises_and_still_records_runtime(self):
        seen = []
        with pytest.raises(ZeroDivisionError):
            with timed_report("raising") as report:
                seen.append(report)
                report.add("before", 1.0)
                1 / 0
        (report,) = seen
        assert report.runtime > 0.0
        assert [c.quantity for c in report.checks] == ["before"]
