import json

import pytest

from reflektor.cli import main, _parse_word, _parse_eq, _parse_range


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_upoly_u(capsys):
    code, out = run(capsys, "upoly", "u", "5")
    assert code == 0
    assert out.strip() == "X^2 - 3*X + 1"


def test_upoly_v(capsys):
    code, out = run(capsys, "upoly", "v", "6")
    assert code == 0
    assert out.strip() == "X - 3"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["upoly", "w", "5"])
    assert exc.value.code == 2


def test_verify_unknown_suite(capsys):
    assert main(["verify", "bogus"]) == 2


def test_verify_suite_text(capsys):
    code, out = run(capsys, "verify", "s1_classification")
    assert code == 0
    assert "s1_classification" in out
    assert "0 failed" in out


def test_verify_json_schema(capsys):
    code, out = run(capsys, "verify", "s3_cor9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite_id"] == "s3_cor9"
    assert payload[0]["artifact_version"] == 1
    statuses = {c["status"] for c in payload[0]["cases"]}
    assert statuses <= {"pass", "fail", "skipped"}
    assert all(c["status"] == "pass" for c in payload[0]["cases"])


def test_verify_quick_profile_skips_large_groups(capsys):
    code, out = run(capsys, "verify", "s3_h4", "--profile", "quick",
                    "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "skipped" for c in payload[0]["cases"])


def test_classification_without_frozen_answer_is_skipped(capsys):
    # bound 5 has no frozen answer, so nothing is compared and no case passes
    code, out = run(capsys, "verify", "classification", "--bound", "5",
                    "--json")
    assert code == 0
    cases = json.loads(out)[0]["cases"]
    assert [c["case_id"] for c in cases] == ["product:5", "sum:5",
                                             "skipped:5"]
    assert all(c["status"] == "skipped" for c in cases)
    assert all(c["detail"].startswith("found ") for c in cases)
    code, out = run(capsys, "verify", "classification", "--bound", "8",
                    "--json")
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(out)[0]["cases"])


def test_verify_identities_range(capsys):
    code, out = run(capsys, "verify", "identities", "--range", "-5..5")
    assert code == 0


def test_verify_section2_kmax(capsys):
    # --kmax K checks the power formulas at every exponent |n| <= 2 K + 1
    code, out = run(capsys, "verify", "section2", "--kmax", "1", "--json")
    assert code == 0
    cases = json.loads(out)[0]["cases"]
    assert all(c["status"] == "pass" for c in cases)
    powers = {int(c["case_id"].split(":")[1]) for c in cases
              if c["case_id"].startswith("s1s2:")}
    assert powers == set(range(-3, 4))


def test_field_root_of_v(capsys):
    code, out = run(capsys, "field", "root-of-v", "5", "1")
    assert code == 0
    assert out.strip() == "-z^3 - z^2 + 1"


def test_rep_delta(capsys):
    code, out = run(capsys, "rep", "delta", "gnn3:2:1")
    assert code == 0
    assert out.strip() == "4"


def test_rep_word_charpoly(capsys):
    code, out = run(capsys, "rep", "word", "h3_coxeter", "s1", "s2",
                    "--charpoly")
    assert code == 0
    assert out.strip().startswith("X^3")


def test_group_order_json(capsys):
    code, out = run(capsys, "group", "order", "--preset", "gppn:3:3",
                    "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["preset"] == "gppn:3:3"
    assert payload["order"] == 54
    # G(3,3,3): words of length up to 6, so 7 frontiers multiplied out, the
    # largest of 15 elements; coefficients are 0 and +-1
    assert payload["closure"] == {"layers": 7, "peak_frontier": 15,
                                  "max_entry_bits": 1, "int64_steps": 0}


def test_group_order_cap(capsys):
    code, out = run(capsys, "group", "order", "--preset", "atilde:3",
                    "--cap", "200", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cap_exceeded"] is True
    stats = payload["closure"]
    assert set(stats) == {"layers", "peak_frontier", "max_entry_bits",
                          "int64_steps"}
    assert 1 <= stats["max_entry_bits"] <= 63


def test_group_element_order(capsys):
    code, out = run(capsys, "group", "element-order", "--preset", "g24_334",
                    "--word", "s1 s2 s3")
    assert code == 0
    assert out.strip() == "14"


def test_group_relation_holds(capsys):
    code, out = run(capsys, "group", "relation", "--preset", "gnn3:4:1",
                    "--eq", "(s1 s2 s3)^2 = (s2 s3 s1)^2")
    assert code == 0
    assert out.strip() == "holds"


def test_group_relation_fails(capsys):
    code, out = run(capsys, "group", "relation", "--preset", "gnn3:4:1",
                    "--eq", "(s1 s2 s3)^7")
    assert code == 1
    assert out.strip() == "fails"


def test_parse_helpers():
    assert _parse_word("s1 s2 s10") == [1, 2, 10]
    assert _parse_range("-6..6") == (-6, 6)
    (lw, le), rhs = _parse_eq("(s1 s2)^3")
    assert (lw, le) == ([1, 2], 3)
    assert rhs is None
    with pytest.raises(ValueError):
        _parse_word("t1")


def test_relation_rejects_letter_outside_rank(capsys):
    # s0 used to wrap around to the last generator and print "holds"
    code = main(["group", "relation", "--preset", "h3_coxeter",
                 "--eq", "s0 s3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == "group: no generator s0 (have s1..s3)"


BAD_INPUT = [
    ["rep", "word", "h3_coxeter", "s1", "s9"],
    ["group", "element-order", "--preset", "h3_coxeter", "--word", "s4"],
    ["group", "relation", "--preset", "h3_coxeter", "--eq", "s0 s3"],
    ["group", "relation", "--preset", "h3_coxeter", "--eq", "s1 = s5"],
    ["rep", "preset", "gppn:3"],
    ["group", "order", "--preset", "gppn:3"],
    ["rep", "preset", "gnn3:4:1:1"],
    ["rep", "delta", "h4_1"],
    ["field", "root-of-v", "2"],
    ["field", "root-of-v", "6", "2"],
    ["upoly", "v", "0"],
    ["group", "order", "--preset", "atilde:3", "--cap", "-1"],
    ["group", "order", "--preset", "atilde:3", "--cap", "0"],
    ["verify", "roots", "--max-r", "2"],
    ["verify", "classification", "--bound", "2"],
    ["verify", "section2", "--kmax", "-1"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err and "Traceback" not in captured.err
