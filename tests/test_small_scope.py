"""Small scope, exhaustively: the share of `small_scope.py` that fits here.

Every run of one or two hypotheses over the 16 sets with prefix and period
of at most two bits, each set the target of its canonical informant: all
16 restrictions against the brute-force oracles, cons, caut_tar, bc and ex
once per labelling of the run from {0, 1}, and `evaluate_site` against
`raw_site` at every violated site, for no element and the reported one.
Runs of three hypotheses and the shuffled and fresh informants are left
to `python tests/small_scope.py`.
"""

from small_scope import pool, sweep


def test_every_run_of_two_hypotheses_over_the_small_sets():
    assert len(pool()) == 16
    comparisons, mismatches = sweep(2, elements=())
    assert mismatches == []
    # 16 targets x (12 x 272 pair checks + 4 x 1056 single-site checks),
    # then 131,016 elements, none included, at the 69,860 violated sites
    assert comparisons == 16 * (12 * 272 + 4 * 1056) + 131_016
