"""Per-run candidate lists and the one-step tallies, against per-pair
oracles.

:class:`~repro.platform.delivery.SweepLists` keeps a list's runner-up
and its count of distinct accounts once per run (a stretch of
positions held by one account). The oracles here are the per-pair
formulas the lists kept before — for every position, the offset to the
next position held by another account (``skip``) and the number of
distinct accounts from it to the row's end (``distinct``) — and the
one-step delivery computed from them position by position in plain
Python floats. Inputs are random CSRs with one to five accounts,
interleaved runs, rows of one account, bids tied across accounts,
empty rows, losing bids and a short round budget.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.platform import bitset
from repro.platform.delivery import SweepLists, _OneStep

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI without hypothesis
    HAVE_HYPOTHESIS = False


def random_csr(rng):
    """A random sweep input: ``(avail, candidates, entry_accounts,
    bids, nrows)``. Entries are in (bid desc, index asc) priority order
    with bids tied across accounts; some rows are empty and some see
    only one account's entries."""
    nrows = int(rng.integers(1, 300))
    n_entries = int(rng.integers(1, 16))
    n_accounts = int(rng.integers(1, 6))
    bids = np.sort(rng.choice([0.008, 0.009, 0.01, 0.01, 0.012],
                              size=n_entries))[::-1].copy()
    entry_accounts = rng.integers(0, n_accounts, size=n_entries)
    density = rng.uniform(0.0, 0.9, size=(n_entries, 1))
    flags = rng.random((n_entries, nrows)) < density
    flags[:, rng.random(nrows) < 0.15] = False
    for r in np.flatnonzero(rng.random(nrows) < 0.2):
        flags[entry_accounts != rng.integers(0, n_accounts), r] = False
    avail = np.stack([bitset.from_indices(np.flatnonzero(row), nrows)
                      for row in flags])
    candidates = np.flatnonzero(rng.random(n_entries) < 0.85)
    if not candidates.size:
        candidates = np.arange(n_entries)
    return avail, candidates, entry_accounts, bids, nrows


def oracle_lists(avail, candidates, entry_accounts, nrows):
    """Per row, its list as ``(entry, account, skip, distinct)`` tuples."""
    rows = []
    for r in range(nrows):
        entries = [int(e) for e in candidates
                   if bitset.test_bit(avail[e], r)]
        accts = [int(entry_accounts[e]) for e in entries]
        lst = []
        for i, (entry, acct) in enumerate(zip(entries, accts)):
            skip = next((j - i for j in range(i + 1, len(accts))
                         if accts[j] != acct), len(accts) - i)
            lst.append((entry, acct, skip, len(set(accts[i:]))))
        rows.append(lst)
    return rows


def oracle_step(rows, bids, constant, floor, round0, max_rounds):
    """The one-step delivery from the per-pair formulas: per row its
    take and lost slots, the round count, the contender histogram,
    impressions per (account, price), each pair's price, and per-entry
    spend — per (round, entry) a left fold over prices in row order,
    the rounds added in order."""
    wins = [bid > constant and bid >= floor for bid in bids]
    winning = [sum(wins[e] for e, *_ in lst) for lst in rows]
    stuck = [w < len(lst) for w, lst in zip(winning, rows)]
    rounds = min(max_rounds - round0, max(winning) + any(stuck))
    take = [min(w, rounds) for w in winning]
    lost = [rounds - t if s else 0 for t, s in zip(take, stuck)]
    contenders = Counter()
    tally = Counter()
    prices = {}
    cells = {}
    for r, lst in enumerate(rows):
        for i in range(take[r]):
            entry, acct, skip, distinct = lst[i]
            runner = bids[lst[i + skip][0]] if distinct > 1 else 0.0
            price = min(max(runner, constant, floor), bids[entry])
            prices[r, i] = price
            tally[acct, price] += 1
            contenders[distinct] += 1
            cells[i, entry] = cells.get((i, entry), 0.0) + price
        if lost[r]:
            contenders[lst[take[r]][3]] += lost[r]
    spend = [0.0] * len(bids)
    for i in range(max(take, default=0)):
        for e in range(len(bids)):
            spend[e] += cells.get((i, e), 0.0)
    return dict(take=take, lost=lost, rounds=rounds, contenders=contenders,
                tally=tally, prices=prices, spend=spend)


def assert_runs_match_pairs(lists, rows):
    """Each position's run carries its oracle runner-up and count."""
    for r, lst in enumerate(rows):
        start = int(lists.end[r]) - len(lst)
        assert int(lists.ptr[r]) == start
        for i, (entry, _acct, skip, distinct) in enumerate(lst):
            pos = start + i
            run = int(lists.row_run0[r]) + int(lists.run_at[pos])
            assert int(lists.cand[pos]) == entry
            want = lst[i + skip][0] if i + skip < len(lst) else lists.no_entry
            assert int(lists.run_next[run]) == want
            assert int(lists.run_accounts[run]) == distinct


def check(seed):
    rng = np.random.default_rng(seed)
    avail, candidates, entry_accounts, bids, nrows = random_csr(rng)
    rows = oracle_lists(avail, candidates, entry_accounts, nrows)
    constant = float(rng.choice([0.0, 0.001, 0.0085, 0.0095, 0.011]))
    floor = float(rng.choice([0.0, 0.0, 0.0085]))
    round0 = int(rng.integers(0, 3))
    max_rounds = round0 + int(rng.integers(1, 20))
    want = oracle_step(rows, bids, constant, floor, round0, max_rounds)
    n_accounts = int(entry_accounts.max()) + 1
    for collect in (False, True):
        step = _OneStep(bids, list(candidates), n_accounts, constant,
                        floor, round0, max_rounds, nrows, collect)
        lists = SweepLists(avail, candidates, entry_accounts[candidates],
                           nrows, max_rounds, step)
        assert_runs_match_pairs(lists, rows)
        if not len(lists.cand):
            continue
        rounds, missed, contenders, tally = step.finish(lists.codes,
                                                        n_accounts)
        assert step.take.tolist() == want["take"]
        assert (rounds, missed) == (want["rounds"], sum(want["lost"]))
        assert Counter({k: int(v) for k, v in enumerate(contenders)
                        if v}) == want["contenders"]
        assert Counter({(a, float(step.values[p])): int(tally[a, p])
                        for a, p in zip(*np.nonzero(tally))}) == \
            want["tally"]
        starts = (lists.end - np.array([len(lst) for lst in rows]))
        if collect:
            got = {(r, i): int(lists.won[starts[r] + i])
                   for r in range(nrows) for i in range(len(rows[r]))}
            assert got == {(r, i): round0 + i if i < want["take"][r]
                           else max_rounds
                           for r in range(nrows)
                           for i in range(len(rows[r]))}
            # Bit for bit: the same association, not just close.
            assert step.spend().tolist() == want["spend"]
        else:
            price_at = np.concatenate(step.price_at)
            assert {key: float(step.values[price_at[starts[key[0]]
                                                    + key[1]]])
                    for key in want["prices"]} == want["prices"]


class TestRunsAgainstPairs:
    def test_seeded_inputs(self):
        for seed in range(150):
            check(seed)

    def test_rows_across_blocks(self):
        # More rows than one build block: runs restart in every block.
        nrows = 9000
        rng = np.random.default_rng(7)
        flags = rng.random((4, nrows)) < 0.5
        avail = np.stack([bitset.from_indices(np.flatnonzero(row), nrows)
                          for row in flags])
        accounts = np.array([0, 1, 0, 1])
        bids = np.array([0.012, 0.01, 0.01, 0.009])
        rows = oracle_lists(avail, np.arange(4), accounts, nrows)
        step = _OneStep(bids, [0, 1, 2, 3], 2, 0.001, 0.0, 0, 50, nrows,
                        True)
        lists = SweepLists(avail, np.arange(4), accounts, nrows, 50, step)
        assert_runs_match_pairs(lists, rows)
        want = oracle_step(rows, bids, 0.001, 0.0, 0, 50)
        assert step.spend().tolist() == want["spend"]

    def test_bits_past_nrows_are_left_out(self):
        avail = np.array([[0b1111], [0b0110]], dtype=np.uint64)
        lists = SweepLists(avail, np.arange(2), np.array([0, 1]), 2, 5)
        rows = oracle_lists(avail, np.arange(2), np.array([0, 1]), 2)
        assert rows == [[(0, 0, 1, 1)], [(0, 0, 1, 2), (1, 1, 1, 1)]]
        assert lists.end.tolist() == [1, 3]
        assert lists.won.tolist() == [5, 5, 5]
        assert_runs_match_pairs(lists, rows)


if HAVE_HYPOTHESIS:
    class TestRunsAgainstPairsProperty:
        @settings(max_examples=100, deadline=None)
        @given(seed=st.integers(0, 2 ** 32 - 1))
        def test_random_inputs(self, seed):
            check(seed)
