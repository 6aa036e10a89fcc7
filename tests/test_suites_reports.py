import io
import json

import pytest

from graded_topos.errors import SchemaError
from graded_topos.generators import GeneratorConfig
from graded_topos.reports import FAIL, PASS, Report, ReportCollector, emit_reports
from graded_topos.suites import DEFAULT_INSTANCES, SUITE_NAMES, run_suite


def test_fail_reports_need_witnesses():
    with pytest.raises(SchemaError):
        Report(subject="x", status=FAIL)
    with pytest.raises(SchemaError):
        Report(subject="x", status="maybe")
    ok = Report(subject="x", status=FAIL, witnesses=(("here", "1", "0"),))
    assert ok.to_json()["witnesses"] == [["here", "1", "0"]]


def test_collector_aggregates_per_subject():
    rc = ReportCollector()
    rc.record("a", True)
    rc.record("a", False, ("spot", "want", "got"))
    rc.record("b", True)
    reports = {r.subject: r for r in rc.reports(elapsed_ms=5)}
    assert reports["a"].status == FAIL
    assert reports["a"].to_json()["regime"] == "exhaustive"
    assert reports["a"].witnesses == (("spot", "want", "got"),)
    assert reports["b"].status == PASS
    assert all(r.elapsed_ms == 5 for r in reports.values())
    # each subject counts the instances recorded under it
    assert [reports[s].to_json()["instances"] for s in "ab"] == [2, 1]


def test_emit_reports_streams_and_exit_codes():
    out, err = io.StringIO(), io.StringIO()
    good = Report(subject="fine", status=PASS)
    bad = Report(subject="broken", status=FAIL, witnesses=(("w", "1", "0"),))
    assert emit_reports([good], out, err) == 0
    assert emit_reports([good, bad], out, err) == 1
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert all(set(line) == {"subject", "status", "regime", "witnesses", "elapsed_ms", "instances"}
               for line in lines)
    assert [line["instances"] for line in lines] == [1, 1, 1]
    assert "FAIL broken" in err.getvalue()


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", GeneratorConfig())


def test_every_suite_has_defaults():
    assert set(DEFAULT_INSTANCES) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass_at_small_scale(name):
    reports = run_suite(name, GeneratorConfig(seed=31), instances=6)
    assert reports
    for report in reports:
        assert report.status == PASS, f"{report.subject}: {report.witnesses}"
        assert report.instances >= 1


def test_suites_are_seed_deterministic():
    a = run_suite("props", GeneratorConfig(seed=9), instances=5)
    b = run_suite("props", GeneratorConfig(seed=9), instances=5)
    assert [(r.subject, r.status, r.witnesses) for r in a] == \
        [(r.subject, r.status, r.witnesses) for r in b]
