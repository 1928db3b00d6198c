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
    assert payload[0]["artifact_version"] == 2
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


def test_verify_identities_range_with_no_tuple_for_a_tag(capsys):
    # C6_16 needs an odd p >= 1, so -5..0 checks nothing for it
    code, out = run(capsys, "verify", "identities", "--range", "-5..0",
                    "--json")
    assert code == 0
    payload = json.loads(out)[0]
    cases = {c["case_id"]: c for c in payload["cases"]}
    assert cases["C6_16:-5..0"] == {"case_id": "C6_16:-5..0",
                                    "status": "skipped",
                                    "detail": "0 index tuples"}
    assert [c["status"] for c in cases.values()].count("skipped") == 1
    # the most terms of one tuple's lhs - rhs (C5_10 and C5_11), and the
    # largest |exponent| of t in them (P7_19 and C8_22, at n = -5)
    assert payload["stats"] == {"laurent_terms": 20, "laurent_degree": 22}


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


@pytest.mark.parametrize("k", [1, 3])
def test_rep_preset_gnn3_2_keeps_the_k_asked_for(capsys, k):
    name = "gnn3:2:%d" % k
    code, out = run(capsys, "rep", "preset", name)
    assert code == 0
    assert out.splitlines()[0] == "%s: rank 3 over Q(zeta_1)" % name
    code, out = run(capsys, "group", "order", "--preset", name, "--json")
    assert code == 0
    assert json.loads(out)["preset"] == name


@pytest.mark.parametrize("name, header", [
    ("g27_a", "g27_a: rank 3 over Q(zeta_15)"),
    ("gppn:3:4", "gppn:3:4: rank 4 over Q(zeta_3)"),
])
def test_rep_preset_names_the_field(capsys, name, header):
    code, out = run(capsys, "rep", "preset", name)
    assert code == 0
    assert out.splitlines()[0] == header


def test_rep_word_charpoly(capsys):
    code, out = run(capsys, "rep", "word", "h3_coxeter", "s1", "s2",
                    "--charpoly")
    assert code == 0
    assert out.strip().startswith("X^3")
    # a rational coefficient carries its sign; any other one is parenthesized
    for argv, line in (
            (("h3_552", "s2"), "X^3 - X^2 - X + 1"),
            (("cor9_a3", "s1", "s2"), "X^3 - 1"),
            (("g27_a", "s1", "s2", "s3"),
             "X^3 + (-z^4 - z)*X^2 + (z^7 + z^4 - z^3 + z^2 + z - 1)*X + 1")):
        code, out = run(capsys, "rep", "word", *argv, "--charpoly")
        assert (code, out) == (0, line + "\n")


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


def test_group_order_json_points(capsys):
    # the size of the point table, beside the closure stats
    for name, points in [("gppn:3:3", 54), ("h4_1", 240)]:
        code, out = run(capsys, "group", "order", "--preset", name, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == points
        assert "points" not in payload["closure"]


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


@pytest.mark.parametrize("eq", ["(s1 s2)^-1", "(s1 s2)^x", "s1 = (s2)^"])
def test_relation_bad_exponent_names_the_exponent(capsys, eq):
    # used to report the bad generator token '(s1'
    code = main(["group", "relation", "--preset", "h3_coxeter", "--eq", eq])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "exponent" in captured.err and "generator" not in captured.err


def test_relation_rejects_letter_outside_rank(capsys):
    # s0 used to wrap around to the last generator and print "holds"
    code = main(["group", "relation", "--preset", "h3_coxeter",
                 "--eq", "s0 s3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip() == "group: no generator s0 (have s1..s3)"


# argv, first stderr line, whether the known presets are listed after it
LOOKUP_ERRORS = [
    (["group", "order", "--preset", "no_such_name"],
     "group: unknown preset 'no_such_name'", True),
    (["rep", "preset", "no_such_name"],
     "rep: unknown preset 'no_such_name'", True),
    (["rep", "word", "nope:3", "s1"],
     "rep: unknown parameterized preset family 'nope'", True),
    (["group", "order", "--preset", "h4_1:2"],
     "group: unknown parameterized preset family 'h4_1'", True),
    (["group", "order", "--preset", "gppn:1:3"],
     "group: need p >= 2 (gppn:1:n would be the affine atilde:n)", False),
    (["rep", "preset", "gppn:x:3"],
     "rep: 'gppn:x:3': the family is spelled gppn:p:n", False),
    (["group", "relation", "--preset", "gnn3:4:1:1", "--eq", "s1"],
     "group: 'gnn3:4:1:1': the family is spelled gnn3:n[:k]", False),
]


@pytest.mark.parametrize("argv,first,lists", LOOKUP_ERRORS,
                         ids=[" ".join(case[0]) for case in LOOKUP_ERRORS])
def test_preset_lookup_errors_name_the_command(capsys, argv, first, lists):
    # presets are listed only when the name or the family is unknown
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == first
    assert len(lines) == (2 if lists else 1)
    if lists:
        assert lines[1].startswith("known presets: cor9_a3, cor9_b3, ")
        # the fixed names, then the spellings of the parameterized families
        assert lines[1].endswith(", h4_oracle, gppn:p:n, atilde:n, gnn3:n[:k]")


BAD_INPUT = [
    ["rep", "word", "h3_coxeter", "s1", "s9"],
    ["group", "element-order", "--preset", "h3_coxeter", "--word", "s4"],
    ["group", "relation", "--preset", "h3_coxeter", "--eq", "s0 s3"],
    ["group", "relation", "--preset", "h3_coxeter", "--eq", "s1 = s5"],
    ["group", "relation", "--preset", "h3_coxeter", "--eq", "(s1 s2)^-1"],
    ["rep", "preset", "gppn:3"],
    ["group", "order", "--preset", "gppn:3"],
    ["rep", "preset", "gnn3:4:1:1"],
    ["group", "order", "--preset", "gppn:1:3"],
    ["group", "order", "--preset", "gnn3:2:2"],
    ["rep", "delta", "h4_1"],
    ["rep", "delta", "gppn:3:3"],
    ["rep", "delta", "gppn:2:3"],
    ["rep", "preset", "h5_coxeter"],
    ["group", "order", "--preset", "h4_1:2"],
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
