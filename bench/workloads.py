"""Seeded inputs for the benchmark workloads, with their expected answers.

Nothing here imports reflektor: every expected value is a closed form or a
pinned constant, so the checks never trust the code they measure.

- verify_full: the full-profile `reflektor verify --all`; the seed does
  not apply.
- closure_queries: a fixed mix of closure-engine queries (order, center,
  word, growth) drawn over the preset families.
"""

import random
from math import factorial, gcd

WORKLOADS = ("verify_full", "closure_queries")

# -- closure_queries ---------------------------------------------------

# Query kinds per sequence, in exact counts so every seed has the same mix.
# 120 queries give op_p90_ms twelve samples beyond it in a single sequence.
QUERY_MIX = {"order": 36, "center": 24, "word": 42, "growth": 18}

# Capped closures of infinite groups stop after this many elements.  At
# 4000, rank3 weights of 16 and above overflow the int64 guard.
GROWTH_CAP = 4000
GROWTH_FAMILIES = ("rank3", "atilde", "cor9_g2t")
# rank3 weights are drawn one from each band, so each seed covers 2..40
# alike and four of the six rank3 queries have a weight of 16 or more
GROWTH_WEIGHT_BANDS = [(2, 8), (9, 15), (16, 21), (22, 27), (28, 34),
                       (35, 40)]
WORD_LENGTHS = range(2, 11)  # taken in turn, so every seed has the same mix

# Pinned orders and centers: tests/test_acceptance.py and the suites pin
# 120 / 336 / 2160 / 14400 and the centers 2 / 2 / 6.
_H3 = ["h3_coxeter", "h3_552", "h3_335", "h3_553a", "h3_553b", "h3_555"]
_G24 = ["g24_334", "g24_443", "g24_444"]
# Six g27 presets of the seven, so that the six g27 center queries, which
# sit at op_p90_ms and differ by 15% in cost, are the same for every seed.
_G27 = ["g27_a", "g27_b", "g27_c", "g27_d", "g27_e", "g27_f"]
_H4 = ["h4_1", "h4_2", "h4_3", "h4_4", "h4_5", "h4_oracle"]
# gppn:p:n has order p^(n-1) n! and center of order gcd(p, n).  These are
# the pairs with 24 <= order <= 23040, in six bands of similar cost; the
# largest three get a band each, since their queries sit near op_p90_ms
# and set the peak memory.  (6, 4), of order 5184, is left out: sharing a
# band with (5, 4), of order 3000, it made op_p90_ms depend on the seed.
_GPPN = [[(2, 3), (3, 3), (4, 3), (5, 3)], [(2, 4), (6, 3), (7, 3)],
         [(3, 4), (4, 4), (2, 5)], [(5, 4)], [(3, 5)], [(2, 6)]]
# gnn3:n:k has order 6 n^2 over Q(zeta_n); six bands of n up to 16 keep the
# field degree at most 12.
_GNN3 = [[2, 3, 4], [5, 6, 8], [7, 9, 10], [11, 12, 14], [13, 15],
         [16]]


def _finite_families():
    """family -> six bands, each a list of (preset, rank, order, center or
    None) of similar cost."""
    def gnn3(n):
        return [("gnn3:%d:%d" % (n, k), 3, 6 * n * n, None)
                for k in range(1, max(n, 2)) if gcd(n, k) == 1]

    def gppn(p, n):
        return (("gppn:%d:%d" % (p, n), n, p ** (n - 1) * factorial(n),
                 gcd(p, n)))

    return {
        "h3": [[(name, 3, 120, 2) for name in _H3]] * 6,
        "g24": [[(name, 3, 336, 2) for name in _G24]] * 6,
        "g27": [[(name, 3, 2160, 6) for name in _G27]] * 6,
        "h4": [[(name, 4, 14400, None) for name in _H4]] * 6,
        "gnn3": [[e for n in band for e in gnn3(n)] for band in _GNN3],
        "gppn": [[gppn(p, n) for p, n in band] for band in _GPPN],
    }


# center queries keep every element, so they stay at or under this order
_CENTER_MAX_ORDER = 10_000


def _reduced_word(rng, rank, length):
    """A word in 1-based generator indices with no letter repeated next to
    itself (s_i s_i = 1 would only shorten it)."""
    word = [rng.randrange(1, rank + 1)]
    while len(word) < length:
        s = rng.randrange(1, rank + 1)
        if s != word[-1]:
            word.append(s)
    return word


def _stratified(rng, families, count):
    """count presets spread evenly over the families and over each
    family's bands.  The seed deals the presets of a band like cards,
    reshuffling when the deck is empty, so a band picked as often as it
    has presets yields each of them once, whatever the seed: the six
    h4 order queries are the six h4 presets, which differ by a quarter
    in cost."""
    decks = {}
    picks = []
    for i in range(count):
        bands = families[sorted(families)[i % len(families)]]
        band = bands[(i // len(families)) % len(bands)]
        deck = decks.setdefault(tuple(band), [])
        if not deck:
            deck.extend(band)
            rng.shuffle(deck)
        picks.append(deck.pop())
    return picks


def closure_queries(seed):
    """QUERY_MIX in a seeded order.  The seed picks presets within bands
    of similar cost, the words and the growth weights, so every seed asks
    for about the same amount of work."""
    rng = random.Random(seed)
    fams = _finite_families()
    centered = {}
    for f in ("h3", "g24", "g27", "gppn"):
        bands = [[e for e in band if e[2] <= _CENTER_MAX_ORDER]
                 for band in fams[f]]
        centered[f] = [band for band in bands if band]
    queries = []
    for name, _, order, _ in _stratified(rng, fams, QUERY_MIX["order"]):
        queries.append({"kind": "order", "preset": name, "order": order})
    for name, _, order, center in _stratified(rng, centered,
                                              QUERY_MIX["center"]):
        queries.append({"kind": "center", "preset": name, "order": order,
                        "center": center})
    for i, (name, rank, _, _) in enumerate(
            _stratified(rng, fams, QUERY_MIX["word"])):
        word = _reduced_word(rng, rank, WORD_LENGTHS[i % len(WORD_LENGTHS)])
        queries.append({"kind": "word", "preset": name, "rank": rank,
                        "word": word})
    for i in range(QUERY_MIX["growth"]):
        family = GROWTH_FAMILIES[i % len(GROWTH_FAMILIES)]
        q = {"kind": "growth", "family": family, "cap": GROWTH_CAP}
        if family == "rank3":
            lo, hi = GROWTH_WEIGHT_BANDS[(i // len(GROWTH_FAMILIES))
                                         % len(GROWTH_WEIGHT_BANDS)]
            q["weight"] = rng.randint(lo, hi)
        elif family == "atilde":
            q["preset"] = "atilde:%d" % (3 + (i // len(GROWTH_FAMILIES)) % 4)
        else:
            q["preset"] = "cor9_g2t"
        queries.append(q)
    rng.shuffle(queries)
    return {"workload": "closure_queries", "queries": queries}


def make_inputs(workload, seed):
    """The inputs one run of a workload feeds to the program."""
    if workload == "verify_full":
        return {"workload": "verify_full",
                "argv": ["verify", "--all", "--profile", "full", "--json"]}
    if workload == "closure_queries":
        return closure_queries(seed)
    raise KeyError("unknown workload %r (have: %s)"
                   % (workload, ", ".join(WORKLOADS)))
