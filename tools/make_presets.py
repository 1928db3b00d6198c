"""Regenerate src/reflektor/presets.json.

The catalog is data, but hand-writing cyclotomic coefficient vectors is a
good way to introduce typos, so the vectors are produced here from readable
expressions and committed.  Run from the repository root:

    python3 tools/make_presets.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from reflektor.cyclo import field_ctx, named_constant, to_field


def scal(ctx, x):
    x = to_field(x, ctx)
    return [x.den, list(x.vec)]


def rank3(ctx, alpha, beta, l, m, exprs, order, comment):
    edges = [
        [1, 2, scal(ctx, alpha), scal(ctx, 1)],
        [1, 3, scal(ctx, beta), scal(ctx, 1)],
    ]
    if not (l == 0 and m == 0):
        edges.append([2, 3, scal(ctx, l), scal(ctx, m)])
    return {"rank": 3, "conductor": ctx.N, "edges": edges,
            "expr": exprs, "expected_order": order, "comment": comment}


def main():
    out = {"version": 1, "presets": {}}
    P = out["presets"]

    c1 = field_ctx(1)
    c5 = field_ctx(5)
    c7 = field_ctx(7)
    c15 = field_ctx(15)

    tau5 = named_constant("tau", 5)
    tau15 = named_constant("tau", 15)
    om = named_constant("omega", 15)
    om2 = om * om
    zeta = named_constant("zeta7_half", 7)

    # ---- order-120 rank-3 catalog over Q(zeta_5) --------------------
    P["h3_coxeter"] = rank3(c5, 1, tau5, 0, 0,
                            {"alpha": "1", "beta": "tau"},
                            120, "plain (3,5,2) chain")
    P["h3_552"] = rank3(c5, tau5, 3 - tau5, 0, 0,
                        {"alpha": "tau", "beta": "3-tau"},
                        120, "(5,5,2) chain")
    P["h3_335"] = rank3(c5, 1, 1, 1 - tau5, 1 - tau5,
                        {"alpha": "1", "beta": "1", "l": "1-tau", "m": "1-tau"},
                        120, "(3,3,5) cycle, gamma = tau")
    P["h3_553a"] = rank3(c5, tau5, tau5, -1, -1,
                         {"alpha": "tau", "beta": "tau", "l": "-1", "m": "-1"},
                         120, "(5,5,3) cycle, gamma = 1")
    P["h3_553b"] = rank3(c5, tau5, 3 - tau5, tau5 - 3, -tau5,
                         {"alpha": "tau", "beta": "3-tau",
                          "l": "tau-3", "m": "-tau"},
                         120, "(5,5,3) cycle, the other decoration")
    P["h3_555"] = rank3(c5, tau5, tau5, 1 - tau5, 1 - tau5,
                        {"alpha": "tau", "beta": "tau",
                         "l": "1-tau", "m": "1-tau"},
                        120, "(5,5,5) cycle, gamma = tau")

    # ---- small rational cycles --------------------------------------
    P["cor9_a3"] = rank3(c1, 1, 1, -1, -1,
                         {"alpha": "1", "beta": "1", "l": "-1", "m": "-1"},
                         24, "(3,3,3) cycle, gamma = 1: symmetric group S4")
    P["cor9_b3"] = rank3(c1, 2, 2, -1, -1,
                         {"alpha": "2", "beta": "2", "l": "-1", "m": "-1"},
                         48, "(4,4,3) cycle, gamma = 1: hyperoctahedral B3")
    P["cor9_g2t"] = rank3(c1, 3, 3, -1, -1,
                          {"alpha": "3", "beta": "3", "l": "-1", "m": "-1"},
                          None, "(6,6,3) cycle, gamma = 1: infinite (affine)")

    # ---- rank-4 catalog over Q(zeta_5) ------------------------------
    def rank4(edges, exprs, order, comment):
        return {"rank": 4, "conductor": 5,
                "edges": [[i, j, scal(c5, a), scal(c5, b)]
                          for i, j, a, b in edges],
                "expr": exprs, "expected_order": order, "comment": comment}

    P["h4_1"] = rank4(
        [(1, 2, 1, 1), (2, 3, 1, 1), (3, 4, tau5, 1)],
        {"C12": "1", "C23": "1", "C34": "tau"},
        14400, "chain 3-3-5")
    P["h4_2"] = rank4(
        [(1, 2, 1, 1), (2, 3, tau5, 1), (3, 4, 3 - tau5, 1)],
        {"C12": "1", "C23": "tau", "C34": "3-tau"},
        14400, "chain 3-5-5")
    P["h4_3"] = rank4(
        [(1, 2, 1, 1), (2, 3, 1, 1), (2, 4, tau5, 1), (3, 4, -tau5, -1)],
        {"C12": "1", "C23": "1", "C24": "tau", "l34": "-tau", "m34": "-1"},
        14400, "triangle on s2 s3 s4, gamma = tau")
    P["h4_4"] = rank4(
        [(1, 2, 1, 1), (2, 3, 1, 1), (2, 4, tau5, 1),
         (3, 4, -1, tau5 - 3)],
        {"C12": "1", "C23": "1", "C24": "tau", "l34": "-1", "m34": "tau-3"},
        14400, "triangle on s2 s3 s4, gamma = 3-tau")
    P["h4_5"] = rank4(
        [(1, 2, 1, 1), (2, 3, 1, 1), (2, 4, 1, 1),
         (3, 4, 1 - tau5, 1 - tau5)],
        {"C12": "1", "C23": "1", "C24": "1", "l34": "1-tau", "m34": "1-tau"},
        14400, "triangle on s2 s3 s4, gamma = tau")
    P["h4_oracle"] = rank4(
        [(1, 2, 1, 1), (2, 3, 1, 1), (3, 4, tau5 - 1, tau5 - 1)],
        {"C12": "1", "C23": "1", "k34": "tau-1 both ways"},
        14400, "symmetric geometric chain 3-3-5 (independent cross-check)")

    # ---- order-336 catalog over Q(zeta_7) ---------------------------
    # zeta here is (1 + i sqrt7)/2, the root of X^2 - X + 2
    P["g24_334"] = rank3(c7, 1, 1, -zeta, zeta - 1,
                         {"alpha": "1", "beta": "1",
                          "l": "-zeta", "m": "zeta-1"},
                         336, "(3,3,4) cycle, gamma = 2")
    P["g24_443"] = rank3(c7, 2, 2, (zeta - 2) / 2, (-1 - zeta) / 2,
                         {"alpha": "2", "beta": "2",
                          "l": "(zeta-2)/2", "m": "(-1-zeta)/2"},
                         336, "(4,4,3) cycle, gamma = 1")
    P["g24_444"] = rank3(c7, 2, 2, (-2 - zeta) / 2, (zeta - 3) / 2,
                         {"alpha": "2", "beta": "2",
                          "l": "(-2-zeta)/2", "m": "(zeta-3)/2"},
                         336, "(4,4,4) cycle, gamma = 2")

    # ---- order-2160 catalog over Q(zeta_15) -------------------------
    tau = tau15
    P["g27_a"] = rank3(c15, 1, 1, om * (tau - 1), om2 * (tau - 1),
                       {"alpha": "1", "beta": "1",
                        "l": "omega*(tau-1)", "m": "omega^2*(tau-1)"},
                       2160, "(3,3,5) cycle, gamma = tau")
    P["g27_b"] = rank3(c15, 1, 2, -om - tau, (-om2 - tau) / 2,
                       {"alpha": "1", "beta": "2",
                        "l": "-omega-tau", "m": "(-omega^2-tau)/2"},
                       2160, "(3,4,5) cycle, gamma = tau")
    P["g27_c"] = rank3(c15, 1, 2, om2 + om * tau, (om + om2 * tau) / 2,
                       {"alpha": "1", "beta": "2",
                        "l": "omega^2+omega*tau", "m": "(omega+omega^2*tau)/2"},
                       2160, "(3,4,5) cycle, the other decoration")
    P["g27_d"] = rank3(c15, tau, 3 - tau, om * (3 - tau), om2 * tau,
                       {"alpha": "tau", "beta": "3-tau",
                        "l": "omega*(3-tau)", "m": "omega^2*tau"},
                       2160, "(5,5,3) cycle, gamma = 1")
    P["g27_e"] = rank3(c15, tau, tau, om * (tau - 1) + om2,
                       om2 * (tau - 1) + om,
                       {"alpha": "tau", "beta": "tau",
                        "l": "omega*(tau-1)+omega^2",
                        "m": "omega^2*(tau-1)+omega"},
                       2160, "(5,5,4) cycle, gamma = 2")
    P["g27_f"] = rank3(c15, 2, 2, (om - tau) / 2, (om2 - tau) / 2,
                       {"alpha": "2", "beta": "2",
                        "l": "(omega-tau)/2", "m": "(omega^2-tau)/2"},
                       2160, "(4,4,5) cycle, gamma = tau")
    P["g27_g"] = rank3(c15, 1, 1, om * (tau - 1) + om2,
                       om2 * (tau - 1) + om,
                       {"alpha": "1", "beta": "1",
                        "l": "omega*(tau-1)+omega^2",
                        "m": "omega^2*(tau-1)+omega"},
                       2160, "(3,3,4) cycle, gamma = 2")

    path = os.path.join(os.path.dirname(__file__), "..",
                        "src", "reflektor", "presets.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s (%d presets)" % (path, len(P)))


if __name__ == "__main__":
    main()
