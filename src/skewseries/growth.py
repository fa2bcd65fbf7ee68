"""The result record of ``iwasawa.rank_growth``.

It sits in a module of its own because it is the one record of the
package still built by ``dataclasses``, whose import pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``: ``rank_growth`` imports
this module when it runs, so loading ``iwasawa`` for ``omega``, ``xi`` or
``descend`` loads none of them.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GrowthResult:
    """lambda_n = d*p**n + c from n = stable_from on, and the table it was read from.

    ``stabilized`` holds when that tail spans at least two levels and
    none of its rows carries the precision flag; c and stable_from are
    read from the table, flagged rows included.  ``to_dict`` notes which
    of the two withholds ``stabilized``.

    Still a dataclass: callers rebuild altered copies with
    ``dataclasses.replace`` (the benchmark's checks corrupt a result that
    way), which refuses the ``_Record`` slot classes of the other records.
    """

    d: int
    c: int
    stable_from: int
    stabilized: bool
    table: tuple[tuple[int, int, bool], ...]  # (n, lambda_n, precision_flag)

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "c": self.c,
            "stable_from": self.stable_from,
            "stabilized": self.stabilized,
        }
        if not self.stabilized:
            why = "no constant tail of length >= 2 by n_max"
            if self.stable_from < self.table[-1][0]:  # the tail is there, but flagged
                why = f"the constant tail from n = {self.stable_from} holds flagged rows"
            out["note"] = f"NotStabilized: {why}"
        return out
