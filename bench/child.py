"""One timed run of a workload, in a fresh interpreter.

    python3 bench/child.py SRC_DIR SPAWN_TIME [--trace]  < inputs.json

SPAWN_TIME is time.monotonic() in the parent just before it started this
process, so setup_s covers the interpreter, `import reflektor` with numpy,
and loading presets.json.  Inputs arrive on stdin after setup; the result
is one JSON object on stdout.  Operations are timed one by one; their
outputs are converted for checking only after the last one has finished.
"""

import contextlib
import io
import json
import sys
import time


def _setup(src):
    sys.path.insert(0, src)
    import reflektor.cli  # noqa: F401  (imports every module and numpy)
    from reflektor import reflrep
    reflrep.preset_names()  # reads presets.json
    return sys.modules["reflektor"]


def _elem(x):
    return [x.den, list(x.vec)]


# -- operations: each returns a thunk that builds the checkable output ---

def _op_verify_full(argv):
    from reflektor import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)

    def output():
        reports = json.loads(buf.getvalue())
        return {"exit_code": rc,
                "cases": [[r["suite_id"], c["case_id"], c["status"]]
                          for r in reports for c in r["cases"]]}
    return output


def _op_query(q):
    from reflektor import engine, reflrep
    kind = q["kind"]
    if kind == "growth":
        if q["family"] == "rank3":
            w = q["weight"]
            rep = reflrep.rank3_rep("grow:%d" % w, w, w, w, w, 1)
        else:
            rep = reflrep.preset(q["preset"])
        res = engine.closure(rep.gens, cap=q["cap"], store_elements=False)
        return lambda: {"cap_exceeded": res.cap_exceeded}
    rep = reflrep.preset(q["preset"])
    if kind == "order":
        res = engine.closure(rep.gens, store_elements=False)
        return lambda: {"order": res.order, "cap_exceeded": res.cap_exceeded}
    if kind == "center":
        res = engine.closure(rep.gens)
        center = engine.center_order(res, rep.gens)
        order = res.order
        return lambda: {"order": order, "center": center}
    # word: order, characteristic polynomial, and the relation w^order = 1
    mat = rep.word(q["word"])
    order = engine.element_order(mat)
    cp = mat.char_poly()
    holds = engine.check_relation(rep.gens, q["word"], order) \
        if order is not None else None
    return lambda: {"order": order, "relation": holds,
                    "charpoly": [_elem(c) for c in cp.coeffs],
                    "conductor": rep.ctx.N,
                    "gens": [[[_elem(x) for x in row] for row in g.rows]
                             for g in rep.gens]}


def operations(inputs):
    """(label, callable) pairs in run order; label indexes the inputs."""
    wl = inputs["workload"]
    if wl == "verify_full":
        return [("verify", lambda: _op_verify_full(inputs["argv"]))]
    if wl == "closure_queries":
        return [(("query", i), lambda q=q: _op_query(q))
                for i, q in enumerate(inputs["queries"])]
    raise KeyError(wl)


def run(inputs):
    ops = operations(inputs)
    records = []
    t_first = time.monotonic()
    for label, op in ops:
        start = time.monotonic()
        try:
            thunk, error = op(), None
        except Exception as exc:  # one failed operation, never the run
            thunk, error = None, "%s: %s" % (type(exc).__name__, exc)
        records.append([label, time.monotonic() - start, thunk, error])
    wall = time.monotonic() - t_first
    results = []
    for label, elapsed, thunk, error in records:
        results.append({"label": label, "elapsed_s": elapsed, "error": error,
                        "output": thunk() if thunk is not None else None})
    return wall, results


def main():
    src, t_spawn = sys.argv[1], float(sys.argv[2])
    trace = "--trace" in sys.argv[3:]
    pkg = _setup(src)
    setup_s = time.monotonic() - t_spawn
    inputs = json.load(sys.stdin)
    out = {"setup_s": setup_s, "package": pkg.__file__}
    if inputs["workload"] != "setup":
        from tracer import Tracer, cache_ratios
        spans = Tracer() if trace else None
        if spans is not None:
            spans.install()
        wall, results = run(inputs)
        out.update(wall_s=wall, ops=results, caches=cache_ratios())
        if spans is not None:
            out["trace"] = spans.metrics()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
