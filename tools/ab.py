"""Alternating A/B runs of two checkouts, and the rule that reads them.

`alternate` runs each checkout once per round, the two taking turns to go
first.  A run maps each row to (value, unit, output): a figure where lower
is better and a digest of what the row computed, or (None, "", why) for a
row that raised.  `report` prints per row both medians, their ratio
this/other, the pairs this checkout won, each side's interquartile range
(IQR) and a verdict: faster or slower only when one side wins at least nine
tenths of the pairs and the medians differ by more than the other
checkout's IQR, else within noise; after `two_passes`, only when a second
pass over the rows so flagged agrees.  A row one side did not run prints
n/a, and a row whose outputs differ between the sides makes the exit
status 1.
Stdlib only.
"""

from __future__ import annotations

import os
import statistics

ROUNDS = 10
LABELS = ("this", "other")


def child_env(tree: str, pycache: str, write: bool = False) -> dict:
    """The environment of a child interpreter: tree's src first on the path,
    bytecode read from pycache only (and written there only with write), str
    hashing fixed so that a result's repr is the same in every process."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONPYCACHEPREFIX": pycache,
           "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    if write:
        del env["PYTHONDONTWRITEBYTECODE"]
    return env


def alternate(trees: list[str], run, rounds: int = ROUNDS) -> list[list[dict]]:
    """Per tree, run(tree) of each round; the first tree goes first in even rounds."""
    runs = [[] for _ in trees]
    for r in range(rounds):
        for t in range(len(trees))[:: -1 if r % 2 else 1]:
            runs[t].append(run(trees[t]))
    return runs


def _iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def verdict(this: list[float], other: list[float]) -> str:
    """faster, slower or within noise: this side's samples against other's, paired by round."""
    gap, need = statistics.median(other) - statistics.median(this), 0.9 * len(this)
    if gap > _iqr(other) and sum(a < b for a, b in zip(this, other)) >= need:
        return "faster"
    if -gap > _iqr(other) and sum(a > b for a, b in zip(this, other)) >= need:
        return "slower"
    return "within noise"


def _names(runs: list[list[dict]]) -> list[str]:
    return list(dict.fromkeys(name for side in runs for run in side for name in run))


def two_passes(trees: list[str], run, rounds: int = ROUNDS) -> tuple:
    """(first, second): `alternate` of run(None), every row, then of run(names), only
    the rows the first pass calls faster or slower (None if it calls none)."""
    first = alternate(trees, run(None), rounds)
    values = {name: [[r.get(name, (None,))[0] for r in side] for side in first] for name in _names(first)}
    flagged = [name for name, v in values.items()
               if len(v) == 2 and None not in v[0] + v[1] and verdict(*v) != "within noise"]
    return first, alternate(trees, run(flagged), rounds) if flagged else None


def report(runs: list[list[dict]], incomparable: dict | None = None, again=None) -> int:
    """Print a line per row of the runs of one or two trees; 1 if a row's
    outputs differ between the trees, else 0.  A row whose unit is a key of
    incomparable prints that value in place of a verdict.  With again (`two_passes`'
    second pass), a row is faster or slower only when both passes call it so."""
    names = _names(runs)
    two, status, w = len(runs) == 2, 0, max(map(len, names), default=3)
    print(f"{'row':{w}s} unit " + (f"{'this':>10s} {'other':>10s} {'ratio':>6s} {'wins':>5s} {'IQR this':>9s} "
                                  f"{'IQR other':>9s}  verdict" if two else f"{'median':>10s} {'IQR':>9s}"))
    for name in names:
        rows = [[run.get(name, (None, "", "did not run it")) for run in side] for side in runs]
        failed = [next((why for value, _, why in side if value is None), None) for side in rows]
        if any(failed):
            print(f"{name:{w}s} n/a: " + "; ".join(f"{LABELS[t]} {why}" for t, why in enumerate(failed) if why))
            continue
        unit = rows[0][0][1]
        values = [[value for value, _, _ in side] for side in rows]
        medians = [statistics.median(v) for v in values]
        if not two:
            print(f"{name:{w}s} {unit:4s} {medians[0]:10.1f} {_iqr(values[0]):9.1f}")
            continue
        if {out for _, _, out in rows[0]} != {out for _, _, out in rows[1]}:
            status, call = 1, "OUTPUT DIFFERS"
        elif unit in (incomparable or {}):
            call = f"not comparable: {incomparable[unit]}"
        else:
            call = verdict(*values)
            if again and call != "within noise":
                second = verdict(*([run[name][0] for run in side] for side in again))
                call = f"{call}, confirmed" if second == call else f"within noise ({call}, then {second})"
        wins = sum(a < b for a, b in zip(*values))
        print(f"{name:{w}s} {unit:4s} {medians[0]:10.1f} {medians[1]:10.1f} {medians[0] / medians[1]:6.2f} "
              f"{wins:2d}/{len(values[0]):<2d} {_iqr(values[0]):9.1f} {_iqr(values[1]):9.1f}  {call}")
    return status
