"""Core burst model: delay sequences, level sequences, parameters, scoring.

An event sequence is represented by its inter-event delays s_1..s_n.  A level
sequence l_1..l_n (with an implicit l_0 = 0) assigns each delay a burst level
in [0, k].  Level l prices delay s with the negative log-likelihood of a rate
beta * alpha**l, and each rise in level costs gamma * log(n) per step raised.
The total score is the sum of both parts; lower is better.  +inf is a valid
score and marks levels that the geometric family rules out (rate 0 with a
positive delay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DomainError

EXP = "exp"
GEO = "geo"

_INF = math.inf


@dataclass(frozen=True)
class SequenceStats:
    """Summary statistics of a delay sequence.

    geo_mean and psi (n * log of the geometric mean, accumulated as a sum of
    logs) are None when a zero delay makes them undefined.
    """

    mean: float
    geo_mean: float | None
    maximum: float
    minimum: float
    psi: float | None


@dataclass(frozen=True)
class DelaySequence:
    """Immutable sequence of nonnegative delays.

    kind is "integer" when every value is a whole number (the geometric
    family requires this) and "real" otherwise.
    """

    values: tuple[float, ...]
    kind: str

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise DomainError("delay sequence must contain at least one value")
        if self.kind not in ("real", "integer"):
            raise DomainError(f"unknown delay kind: {self.kind!r}")
        for v in self.values:
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"delays must be finite and nonnegative, got {v!r}")
            if self.kind == "integer" and v != int(v):
                raise DomainError(f"integer delay sequence contains {v!r}")

    @classmethod
    def from_values(cls, values: Sequence[float], kind: str | None = None) -> "DelaySequence":
        """Build a sequence, detecting integer-valued input when kind is None."""
        vals = tuple(float(v) for v in values)
        if kind is None:
            kind = "integer" if all(v == int(v) for v in vals if math.isfinite(v)) else "real"
        return cls(vals, kind)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_integer_valued(self) -> bool:
        return self.kind == "integer"

    @cached_property
    def stats(self) -> SequenceStats:
        return sequence_stats(self)


def sequence_stats(seq: DelaySequence) -> SequenceStats:
    """Compute mean, extremes and geometric-mean statistics of a sequence."""
    vals = seq.values
    n = len(vals)
    mean = math.fsum(vals) / n
    if min(vals) > 0:
        psi = math.fsum(math.log(v) for v in vals)
        geo_mean = math.exp(psi / n)
    else:
        psi = None
        geo_mean = None
    return SequenceStats(mean=mean, geo_mean=geo_mean, maximum=max(vals), minimum=min(vals), psi=psi)


@dataclass(frozen=True)
class LevelSequence:
    """Burst levels assigned to each delay, each within [0, k]."""

    levels: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise DomainError("k must be nonnegative")
        levels = self.levels
        if not levels or (set(map(type, levels)) == {int}
                          and min(levels) >= 0 and max(levels) <= self.k):
            # plain ints already in range: the loop below would keep them as they are
            object.__setattr__(self, "levels", tuple(levels))
            return
        normalized = []
        for lev in self.levels:
            if lev != int(lev) or not 0 <= lev <= self.k:
                raise DomainError(f"level {lev!r} outside [0, {self.k}]")
            normalized.append(int(lev))
        object.__setattr__(self, "levels", tuple(normalized))

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator[int]:
        return iter(self.levels)

    def __getitem__(self, i: int) -> int:
        return self.levels[i]

    def rises(self) -> int:
        """Total upward movement, counting the implicit start at level 0."""
        prev = 0
        total = 0
        for lev in self.levels:
            if lev > prev:
                total += lev - prev
            prev = lev
        return total

    def total(self) -> int:
        return sum(self.levels)


@dataclass(frozen=True)
class BurstParams:
    """Model parameters: family, rate geometry (alpha, beta), penalty weight, max level.

    The exponential family needs alpha >= 1 and beta > 0 (alpha = 1 collapses
    all levels to the same rate and is allowed so that parameter scans can
    probe it), and its top rate beta * alpha**k must be a finite float.  The
    geometric family needs 0 <= alpha < 1 and 0 <= beta < 1, which keeps
    every level rate beta * alpha**l inside [0, 1).
    """

    family: str
    alpha: float
    beta: float
    gamma: float
    k: int

    def __post_init__(self) -> None:
        check_family(self.family, self.alpha)
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if not (isinstance(self.k, int) and self.k >= 0):
            raise DomainError(f"k must be a nonnegative integer, got {self.k!r}")
        if self.gamma <= 0:
            raise DomainError(f"gamma must be positive, got {self.gamma!r}")
        if self.family == EXP:
            if self.beta <= 0:
                raise DomainError(f"exp family needs beta > 0, got {self.beta!r}")
            try:
                top = self.beta * self.alpha ** self.k
            except OverflowError:
                top = _INF
            if not math.isfinite(top):
                raise DomainError(f"exp family needs a finite top rate beta * alpha**k, got "
                                  f"beta={self.beta!r}, alpha={self.alpha!r}, k={self.k}")
        elif not 0 <= self.beta < 1:
            raise DomainError(f"geo family needs 0 <= beta < 1, got {self.beta!r}")

    def rate(self, level: int) -> float:
        """Rate at a burst level: beta * alpha**level (alpha**0 is 1 even for alpha = 0)."""
        return self.beta * self.alpha ** level


@dataclass(frozen=True)
class Solution:
    """A solver result: levels, the (alpha, beta) that scored them, and the score."""

    levels: LevelSequence
    alpha: float
    beta: float
    score: float
    viterbi_calls: int = 0
    diagnostics: dict = field(default_factory=dict)


def best_of(solutions: Iterable[Solution], by: str) -> Solution:
    """The lowest-scoring solution, ties going to the smaller `by` ("alpha" or "beta").

    Streams its input, so a scan never holds more than the best solution so
    far.  The result reports viterbi_calls summed over every solution seen.
    """
    best: Solution | None = None
    calls = 0
    for sol in solutions:
        calls += sol.viterbi_calls
        if best is None or (sol.score, getattr(sol, by)) < (best.score, getattr(best, by)):
            best = sol
    if best is None:
        raise ValueError("best_of needs at least one solution")
    return replace(best, viterbi_calls=calls)


def check_family(family: str, alpha: float | None = None) -> None:
    """Reject an unknown family and, when alpha is given, an alpha outside its range.

    The exponential family needs alpha >= 1, the geometric one 0 <= alpha < 1.
    """
    if family not in (EXP, GEO):
        raise DomainError(f"unknown family: {family!r}")
    if alpha is not None and family == EXP and alpha < 1:
        raise DomainError(f"exp family needs alpha >= 1, got {alpha!r}")
    if alpha is not None and family == GEO and not 0 <= alpha < 1:
        raise DomainError(f"geo family needs 0 <= alpha < 1, got {alpha!r}")


def check_delays(seq: DelaySequence, family: str, fit: bool = False) -> None:
    """Reject delays the family cannot score: the geometric one needs whole numbers.

    With fit, also reject delays no rate of the family can be fitted to: a
    zero delay drives the best exponential rate of its level to infinity.
    """
    check_family(family)
    if family == GEO and not seq.is_integer_valued:
        raise DomainError("geometric family requires integer delays")
    if fit and family == EXP and seq.stats.minimum <= 0:
        raise DomainError(
            "fitting exponential rates requires strictly positive delays; "
            "shift the delays by a small amount to remove zeros"
        )


def check_scan_args(seq: DelaySequence, family: str, alpha: float, gamma: float, k: int,
                    epsilon: float) -> None:
    """Reject inputs no (1 + eps) scan of the family can take, before any DP work.

    A probe BurstParams checks alpha, gamma and k; its base rate 0.5 is one
    both families accept.  An epsilon with 1 + eps == 1 would make every
    candidate schedule repeat one value without end.
    """
    check_delays(seq, family, fit=True)
    BurstParams(family, alpha, 0.5, gamma, k)
    if not 1 < 1 + epsilon < _INF:
        raise DomainError(f"epsilon must be finite with 1 + epsilon > 1, got {epsilon!r}")


def neg_loglik_exp(s: float, lam: float) -> float:
    """Exponential negative log-likelihood: s * lam - log(lam).  Requires lam > 0."""
    if lam <= 0:
        raise DomainError(f"exponential rate must be positive, got {lam!r}")
    return s * lam - math.log(lam)


def neg_loglik_geo(s: float, lam: float) -> float:
    """Geometric negative log-likelihood: -log(1 - lam) - s * log(lam).

    Requires an integer s >= 0 and lam in [0, 1).  At lam = 0 the convention
    0 * log 0 = 0 gives 0 for s = 0, while any positive delay is impossible
    and scores +inf.
    """
    if not 0 <= lam < 1:
        raise DomainError(f"geometric rate must be in [0, 1), got {lam!r}")
    if s < 0 or s != int(s):
        raise DomainError(f"geometric delays must be nonnegative integers, got {s!r}")
    if lam == 0.0:
        return 0.0 if s == 0 else _INF
    return -math.log1p(-lam) - s * math.log(lam)


def penalty(x: int, y: int, gamma: float, n: int) -> float:
    """Transition cost from level x to level y: max(y - x, 0) * gamma * log(n)."""
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n!r}")
    return max(y - x, 0) * (gamma * math.log(n))


def score_total(levels: LevelSequence | Sequence[int], seq: DelaySequence, params: BurstParams) -> float:
    """Full score of a level sequence: likelihood terms plus transition penalties.

    Accumulates per position in order (penalty, then likelihood), which is the
    same association the dynamic program uses; identical assignments therefore
    produce bit-identical scores in both.  Returns +inf when the geometric
    family assigns rate 0 to a positive delay.
    """
    levs = levels.levels if isinstance(levels, LevelSequence) else tuple(levels)
    if len(levs) != seq.n:
        raise DomainError(f"levels length {len(levs)} != sequence length {seq.n}")
    check_delays(seq, params.family)
    n = seq.n
    unit = params.gamma * math.log(n)
    nll = neg_loglik_exp if params.family == EXP else neg_loglik_geo
    score = 0.0
    prev = 0
    for s, lev in zip(seq.values, levs):
        score += max(lev - prev, 0) * unit
        score += nll(s, params.beta * params.alpha ** lev)
        prev = lev
    return score
