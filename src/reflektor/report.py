"""Shared result container for the verification suites.

A suite is a flat list of named cases, each pass / fail / skipped.  Case ids
are built from whatever label tuple the caller provides, so ordering (and
hence serialized output) is deterministic for a fixed code version.
"""

import time

ARTIFACT_VERSION = 1


def _case_id(label):
    if isinstance(label, (tuple, list)):
        return ":".join(str(x) for x in label)
    return str(label)


class SuiteResult:
    def __init__(self, name):
        self.name = name
        self.records = []          # (case_id, status, detail)
        self.elapsed = 0.0
        self.stats = {}            # what a check covered, by key

    def add(self, case_id, status, detail=""):
        self.records.append((case_id, status, detail))

    def check(self, ok, label, detail=""):
        self.add(_case_id(label), "pass" if ok else "fail", detail)

    def skip(self, label, reason=""):
        self.add(_case_id(label), "skipped", reason)

    def merge(self, other):
        """Append other's records; each stat keeps the larger value."""
        self.records.extend(other.records)
        for key, value in other.stats.items():
            self.stats[key] = max(value, self.stats.get(key, value))

    @property
    def cases(self):
        return sum(1 for r in self.records if r[1] != "skipped")

    @property
    def failures(self):
        return [r[0] for r in self.records if r[1] == "fail"]

    @property
    def skipped(self):
        return [r[0] for r in self.records if r[1] == "skipped"]

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        out = {
            "suite_id": self.name,
            "cases": [{"case_id": c, "status": s, "detail": d}
                      for c, s, d in self.records],
            "elapsed": round(self.elapsed, 3),
            "artifact_version": ARTIFACT_VERSION,
        }
        if self.stats:
            out["stats"] = dict(self.stats)
        return out

    def __repr__(self):
        state = "pass" if self.passed else "FAIL(%d)" % len(self.failures)
        return "<%s: %d cases, %s>" % (self.name, len(self.records), state)


def timed(fn, *args):
    """fn(*args), which returns a SuiteResult, with its elapsed time set."""
    start = time.perf_counter()
    res = fn(*args)
    res.elapsed = time.perf_counter() - start
    return res
