"""Both searches against an exact reference past ``BRUTE_FORCE_LIMIT``.

The brute-force oracles stop at 20 axioms. ``exact_min_diagnoses`` has no
such limit on abstract DPIs and shares no code with ``hsdiag.search``: it
enumerates hitting sets depth first, branching on the members of the first
conflict not yet hit in plain index order, with no forbidden masks, no
conflict store and no resume hints, and cuts every branch whose log cost
falls below a threshold. The threshold is lowered one cheapest step at a
time until ld minimal hitting sets clear it; a minimal hitting set that
does not clear it costs less than every one that does.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from hsdiag import FaultProbabilities, cardinality_pr, gen_random_dpi, hs_tree, rbf_hs


def exact_min_diagnoses(dpi, pr, ld: int) -> list[tuple[tuple[str, ...], float]]:
    """The ld most probable minimal diagnoses of an abstract DPI as (ids,
    probability), sorted by probability, then cardinality, then K order."""
    ids = list(dpi.k_ids)
    n = len(ids)
    family = [sum(1 << ids.index(a) for a in c) for c in dpi.conflict_family]
    step = [math.log(pr[a]) - math.log1p(-pr[a]) for a in ids]
    f_empty = sum(math.log1p(-pr[a]) for a in ids)

    def members(h):
        return [b for b in range(n) if h >> b & 1]

    def cost(h):
        return f_empty + sum(step[b] for b in members(h))

    def minimal(h):
        return all(any(not c & h & ~(1 << b) for c in family) for b in members(h))

    level = 0
    while True:
        # halfway between cardinality levels in card mode, so no tie straddles it
        cut = f_empty + (level + 0.5) * max(step)
        found, stack = set(), [(0, f_empty)]
        while stack:
            h, f = stack.pop()
            missed = next((c for c in family if not c & h), None)
            if missed is None:
                found.add(h)
                continue
            for b in members(missed):
                if f + step[b] >= cut:
                    stack.append((h | 1 << b, f + step[b]))
        kept = [h for h in found if minimal(h)]
        if len(kept) >= ld or cut < cost((1 << n) - 1):
            break
        level += 1
    kept.sort(key=lambda h: (-cost(h), len(members(h)), members(h)))
    return [(tuple(ids[b] for b in members(h)), math.exp(cost(h))) for h in kept[:ld]]


def instance(seed: int, mode: str):
    """A random abstract DPI past BRUTE_FORCE_LIMIT: |K| of 21 to 40, 10 to
    22 sampled conflicts of up to 3 to 5 members. Drawn from one seed, so
    the sizes spread evenly over their ranges."""
    rng = random.Random(seed)
    dpi = gen_random_dpi(rng.randint(21, 40), rng.randint(10, 22), rng.randint(3, 5), seed)
    if mode == "card":
        return dpi, cardinality_pr(dpi.k_ids)
    return dpi, FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids})


# the slowest example takes about half a second
past_the_limit = given(
    seed=st.integers(0, 2**32 - 1),
    ld=st.sampled_from([1, 5, 20]),
    mode=st.sampled_from(["prob", "card"]),
)


@settings(max_examples=100, deadline=None)
@past_the_limit
def test_hs_tree_returns_the_exact_list(seed, ld, mode):
    # HS-Tree pops in the full sort order, so its list is the exact one:
    # the ids in order, the probabilities up to the rounding of sums taken
    # in another order
    dpi, pr = instance(seed, mode)
    expected = exact_min_diagnoses(dpi, pr, ld)
    result = hs_tree(dpi, pr, ld, debug=True)
    assert [d.ids for d in result.diagnoses] == [ids for ids, _ in expected]
    assert all(math.isclose(d.pr, p, rel_tol=1e-12) for d, (_, p) in zip(result.diagnoses, expected))


@settings(max_examples=100, deadline=None)
@past_the_limit
def test_rbf_hs_returns_the_exact_costs(seed, ld, mode):
    # RBF-HS may order diagnoses of equal cost differently, which only card
    # mode has
    dpi, pr = instance(seed, mode)
    expected = exact_min_diagnoses(dpi, pr, ld)
    result = rbf_hs(dpi, pr, ld, debug=True)
    assert len(result.diagnoses) == len(expected)
    assert all(math.isclose(d.pr, p, rel_tol=1e-12) for d, (_, p) in zip(result.diagnoses, expected))
    if mode == "prob":
        assert [d.ids for d in result.diagnoses] == [ids for ids, _ in expected]
