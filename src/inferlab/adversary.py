"""Separation games played against pluggable opponent learners.

Each driver here replays one of the classic diagonalization arguments as
an executable game: feed the opponent a staged informant, wait for it to
commit to a conjecture, then steer the target so that keeping the
commitment breaks a restriction.  The outcome is a `Witness` that either
pins a concrete violation site, documents an unbounded mind-change
transcript, exhibits a pair of targets the opponent cannot tell apart, or
honestly reports that the search bounds ran out.  A game names only its
site: `restrictions.verdict_at` names the site's least witness, as
`check` does, and the verdict re-checks through `revalidate`.

Failure to find a witness proves nothing; a returned violation always
re-verifies.  Opponents may live in this process (any `Learner`) or in a
child process speaking a one-line query protocol; `check_opponent` says
which interaction modes each game can play.
"""

from __future__ import annotations

import queue
import subprocess
import threading
from dataclasses import dataclass, field, fields

from .catalog import language
from .evidence import (DataSet, Informant, canonical, canonical_informant,
                       content, format_sequence)
from .hypothesis import Hypothesis
from .interaction import EvalContext, HypSequence, Learner, run
from .restrictions import Verdict, check, revalidate, verdict_at
from .upset import (NATURALS, UPSet, complement, from_elements, from_mask,
                    parse, union)

__all__ = [
    "ADVERSARY_IDS",
    "Bounds",
    "DEFAULT_BOUNDS",
    "MindchangeRound",
    "OpponentError",
    "SubprocessOpponent",
    "Witness",
    "check_opponent",
    "run_adversary",
    "verify_witness",
]

WITNESS_KINDS = ("restriction-violation", "mindchange-transcript",
                 "split-pair", "exhausted")


@dataclass(frozen=True)
class Bounds:
    """Search budget: stabilization index, probe depth, mind-change rounds.

    Each bound is a positive int; a bool is not one.
    """

    n_search: int = 100
    t_bound: int = 50
    rounds: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value not in NATURALS or value < 1:
                raise ValueError(f"{f.name} must be a positive integer,"
                                 f" got {value!r}")


DEFAULT_BOUNDS = Bounds()


@dataclass(frozen=True)
class MindchangeRound:
    b: int
    t: int
    probe: int  # the fresh number offered this round
    label_before: int
    label_after: int


@dataclass(frozen=True)
class Witness:
    kind: str
    adversary: str
    opponent: str
    bounds: Bounds
    note: str = ""
    informant: Informant | None = None
    horizon: int = 0
    verdict: Verdict | None = None
    params: tuple[tuple[str, int], ...] = ()
    transcript: tuple[MindchangeRound, ...] = ()
    split: tuple[UPSet, UPSet] | None = None
    data: DataSet | None = None
    opponent_ref: Learner | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")


class _Stop(Exception):
    """Ends a staged game early; args[0] is the exhausted witness."""


@dataclass
class _Game:
    """The staged-game script: play a target, wait for a commitment,
    switch the target, check the replay, find the site.

    Each step either returns what the game needs next or raises `_Stop`
    with an exhausted witness, so a game reads as straight-line code. The
    mindchange game plays no target and uses only the opponent, bounds
    and `_witness`.
    """

    adversary: str
    opponent: Learner
    bounds: Bounds
    commitments: list[tuple[int, UPSet]] = field(default_factory=list)
    params: list[tuple[str, int]] = field(default_factory=list)
    informant: Informant | None = None
    horizon: int = 0
    seq: HypSequence | None = None

    def _witness(self, kind: str, note: str, **extra) -> Witness:
        return Witness(kind, self.adversary, self.opponent.name, self.bounds,
                       note=note, opponent_ref=self.opponent, **extra)

    def exhaust(self, note: str, verdict: Verdict | None = None):
        """Give up on the current run, keeping its informant and params."""
        raise _Stop(self._witness(
            "exhausted", note, informant=self.informant, horizon=self.horizon,
            verdict=verdict, params=tuple(self.params)))

    def param(self, name: str, value: int) -> int:
        self.params.append((name, value))
        return value

    def play(self, target: UPSet, horizon: int):
        """Run the opponent on the target; every commitment must replay."""
        self.informant = canonical_informant(target)
        self.horizon = horizon
        self.seq = run(self.opponent, self.informant, horizon)
        if any(self.seq[i].extension != ext for i, ext in self.commitments):
            at = "at" if len(self.commitments) == 1 else "before"
            raise _Stop(self._witness("exhausted", "stage replay diverged"
                                      f" {at} index {self.commitments[-1][0]}"))

    def outline(self, n: int) -> int:
        """The mask of the values in the last play's first n examples."""
        index = self.seq.index
        return index.positives[n] | index.negatives[n]

    def _index(self, pred, start: int) -> int | None:
        return next((i for i in range(start, len(self.seq))
                     if pred(self.seq[i].extension)), None)

    def first(self, pred, note: str, start: int = 0) -> int:
        """Least index from `start` whose extension satisfies `pred`."""
        i = self._index(pred, start)
        if i is None:
            self.exhaust(f"{note}: {check('bc', self.seq).detail}")
        return i

    def commit(self, name: str, target: UPSet, note: str, start: int = 0) -> int:
        """`first` conjecture of `target`, which later plays must replay."""
        i = self._index(lambda ext: ext == target, start)
        if i is None:
            self.exhaust(note, check("bc", self.seq))
        self.commitments.append((i, target))
        return self.param(name, i)

    def found(self, verdict: Verdict, note: str) -> Witness:
        # a constructed site with no witness, or one that does not
        # re-verify, is a driver bug
        if verdict.satisfied or not revalidate(verdict, self.seq):
            self.exhaust("constructed violation site failed revalidation")
        return self._witness(
            "restriction-violation", note, informant=self.informant,
            horizon=self.horizon, verdict=verdict, params=tuple(self.params))


def _commit_to_naturals(g: _Game) -> int:
    """Common opening: wait for the opponent to conjecture the naturals."""
    g.play(NATURALS, g.bounds.n_search)
    return g.commit("n0", NATURALS, "opponent never conjectured the naturals"
                    f" within {g.bounds.n_search} steps, so there is nothing to"
                    " descend from; it also fails bc on the naturals at this"
                    " horizon")


def _caut(g: _Game) -> Witness:
    """After a commitment to the naturals at n0, drop n0+1 from the target:
    learning it means landing on a proper subset of an earlier guess."""
    n0 = _commit_to_naturals(g)
    g.play(complement(from_elements({n0 + 1})), n0 + 2 + g.bounds.t_bound)
    verdict = check(g.adversary, g.seq)
    if verdict.satisfied:
        g.exhaust(f"no {g.adversary} violation up to horizon {g.horizon};"
                  f" bc on the shrunk target: {check('bc', g.seq).detail}")
    return g.found(verdict, f"committed to the naturals at {n0},"
                            f" then dropped {n0 + 1}")


def _caut_fin(g: _Game) -> Witness:
    """After a commitment to the naturals at n0, the target becomes the
    positive data shown so far: a finite proper subset of that guess."""
    n0 = _commit_to_naturals(g)
    g.play(from_elements(range(n0)), n0 + 2 + g.bounds.t_bound)
    verdict = check("caut_fin", g.seq)
    if verdict.satisfied:
        g.exhaust(f"no finite descent up to horizon {g.horizon};"
                  f" bc on the finite target: {check('bc', g.seq).detail}")
    return g.found(verdict, f"conjectured the naturals at {n0}, target"
                            " returns to the positive data shown so far")


def _smon_vs_dual(g: _Game) -> Witness:
    """Commit to {0}, then grow the target by an element never shown."""
    base = from_elements({0})
    g.play(base, g.bounds.n_search)
    n0 = g.commit("n0", base, f"opponent never conjectured {base} within"
                              f" {g.bounds.n_search} steps; no commitment"
                              " to grow past")
    x = g.param("x", max(g.outline(n0).bit_length(), 1))
    g.play(union(base, from_elements({x})), x + 1 + g.bounds.t_bound)
    t = g.first(lambda ext: ext.member(x), "opponent never admitted the fresh"
                f" element {x}; bc on the grown target", n0 + 1)
    return g.found(verdict_at("smon_d", g.seq, [(n0, t)]),
                   f"committed to {base} at {n0}, grew by the unseen {x} at {t}")


def _dual_vs_smon(g: _Game) -> Witness:
    """Commit to the naturals, then shrink the target onto a segment."""
    n0 = _commit_to_naturals(g)
    g.play(language("segment", n=n0 + 1), n0 + 3 + g.bounds.t_bound)
    t = g.first(lambda ext: ext != NATURALS, "opponent clung to the naturals"
                " on a segment target; bc there", n0 + 1)
    return g.found(verdict_at("smon", g.seq, [(n0, t)]),
                   f"guessed the naturals at {n0}, then had to shrink onto"
                   " the segment")


_THREE_STAGE = {
    # kind -> (tier builders, broken restriction)
    "mon_vs_dual": ("streamX", "streamY", "streamZ", "mon_d"),
    "dual_vs_mon": ("evenX", "evenY", "evenZ", "mon"),
}


def _three_stage(g: _Game) -> Witness:
    """Walk the opponent through the X/Y/Z tiers of its home family."""
    xid, yid, zid, rid = _THREE_STAGE[g.adversary]
    base = language(xid)

    def rows_shown(n: int) -> int:  # a row is as long as X's period
        return (g.outline(n).bit_length() - 1) // len(base.period) + 1

    g.play(base, g.bounds.n_search)
    n_x = g.commit("n_x", base, "opponent never conjectured the base tier"
                                f" within {g.bounds.n_search} steps")
    n = g.param("n", rows_shown(n_x))
    mid = language(yid, n=n)
    g.play(mid, n_x + g.bounds.n_search)
    n_y = g.commit("n_y", mid, "opponent never conjectured the middle tier"
                               f" (n={n}) within {g.horizon} steps", n_x + 1)
    m = g.param("m", max(n + 1, rows_shown(n_y)))
    top = language(zid, n=n, m=m)
    g.play(top, n_y + g.bounds.n_search)
    n_z = g.commit("n_z", top, "opponent never conjectured the third tier"
                               f" (n={n}, m={m}) within {g.horizon} steps",
                   n_y + 1)
    return g.found(verdict_at(rid, g.seq, [(n_x, n_y)]),
                   f"walked the opponent through all three tiers (n={n},"
                   f" m={m}, settling at {n_z})")


# ---------------------------------------------------------------------------
# mind changes

def _succ(d: DataSet, p: int, t: int) -> DataSet:
    """Content of the canonical informant for pos(d) + {p}, length p + t."""
    return content(canonical(d.masks[0] | 1 << p, p + t))


def _fresh(d: DataSet) -> int:
    """The first of the two fresh numbers a round offers: past all of d."""
    p, n = d.masks
    return (p | n).bit_length()


def _split(d: DataSet) -> tuple[UPSet, UPSet]:
    """The two targets a round can grow: pos(d) plus either fresh number."""
    return tuple(from_mask(d.masks[0] | 1 << (_fresh(d) + b)) for b in (0, 1))


def _label_flip(opponent: Learner, d: DataSet, label: int, t_bound: int, ctx):
    """First (b, t, probe, new label, grown data) that changes `label`."""
    p0 = _fresh(d)
    for b in (0, 1):
        for t in range(t_bound + 1):
            cand = _succ(d, p0 + b, t)
            after = opponent.fn(cand, ctx).label
            if after != label:
                return b, t, p0 + b, after, cand
    return None


def _mindchange(g: _Game) -> Witness:
    """Force syntactic mind changes out of a set-driven opponent.

    Each round offers one of two fresh numbers and searches probe depths
    t <= t_bound for an output label change; if neither fresh number
    ever flips the label, the two grown targets form a split pair the
    opponent answers identically.
    """
    try:
        check_opponent(g.adversary, g.opponent.kind)
    except ValueError as exc:
        raise OpponentError(str(exc)) from None
    ctx = EvalContext()
    rounds, t_bound = g.bounds.rounds, g.bounds.t_bound
    d = DataSet(frozenset())
    transcript: list[MindchangeRound] = []
    for k in range(rounds):
        before = g.opponent.fn(d, ctx).label
        found = _label_flip(g.opponent, d, before, t_bound, ctx)
        if found is None:
            p0 = _fresh(d)
            return g._witness(
                "split-pair", f"label never changed over {t_bound + 1} probe"
                " depths for either fresh element; one conjecture cannot fit"
                " both targets", split=_split(d), data=d,
                params=(("p0", p0), ("p1", p0 + 1), ("round", k)))
        b, t, p, after, cand = found
        transcript.append(MindchangeRound(b, t, p, before, after))
        d = cand
    return g._witness("mindchange-transcript", f"forced {rounds} mind changes",
                      transcript=tuple(transcript), data=d,
                      params=(("rounds", rounds),))


_GAMES = {
    "caut_tar": _caut,
    "caut_inf": _caut,
    "caut_fin": _caut_fin,
    "smon_vs_dual": _smon_vs_dual,
    "dual_vs_smon": _dual_vs_smon,
    "mon_vs_dual": _three_stage,
    "dual_vs_mon": _three_stage,
    "mindchange": _mindchange,
}

ADVERSARY_IDS = tuple(_GAMES)


def check_opponent(adversary_id: str, kind: str) -> None:
    """Raise ValueError if the adversary cannot play an opponent of the
    interaction mode `kind`: the mindchange game needs a set-driven one."""
    if adversary_id == "mindchange" and kind != "Sd":
        raise ValueError("mindchange needs a set-driven opponent; "
                         f"the pipeline is {kind}")


def run_adversary(
    adversary_id: str,
    opponent: Learner,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Witness:
    """Play one registered adversary by id."""
    game = _GAMES.get(adversary_id)
    if game is None:
        raise ValueError(f"unknown adversary {adversary_id!r};"
                         f" known: {', '.join(ADVERSARY_IDS)}")
    try:
        return game(_Game(adversary_id, opponent, bounds))
    except _Stop as stop:
        return stop.args[0]


def verify_witness(w: Witness) -> bool:
    """Reproduce the recorded game and re-check the claimed relation."""
    if w.kind == "exhausted":
        return True
    if w.opponent_ref is None:
        return False
    ctx = EvalContext()
    if w.kind == "restriction-violation":
        if w.informant is None or w.verdict is None or w.verdict.satisfied:
            return False
        seq = run(w.opponent_ref, w.informant, w.horizon, ctx)
        return revalidate(w.verdict, seq)
    if w.kind == "mindchange-transcript":
        if not w.transcript or w.params != (("rounds", len(w.transcript)),):
            return False
        d = DataSet(frozenset())
        for r in w.transcript:
            before = w.opponent_ref.fn(d, ctx).label
            if before != r.label_before:
                return False
            if r.probe != _fresh(d) + r.b:
                return False
            cand = _succ(d, r.probe, r.t)
            after = w.opponent_ref.fn(cand, ctx).label
            if after != r.label_after or after == before:
                return False
            d = cand
        return d == w.data
    # split-pair: no probe of either grown target changes the label
    if w.data is None or w.split != _split(w.data):
        return False
    base = w.opponent_ref.fn(w.data, ctx).label
    return _label_flip(w.opponent_ref, w.data, base, w.bounds.t_bound,
                       ctx) is None


# ---------------------------------------------------------------------------
# external opponents

class OpponentError(RuntimeError):
    """The external opponent broke protocol, timed out, or died."""


class SubprocessOpponent:
    """Opponent living in a child process, one line each way per query.

    Protocol: request `Q <data-text>` where the payload is the usual
    value:+,value:- rendering (possibly empty); reply `H <label> <P|Q>`.
    The child stays alive between queries; replies are read by a pump
    thread so a silent child turns into a timeout, not a hang.
    """

    def __init__(self, argv, timeout: float = 5.0, kind: str = "Sd",
                 name: str = "external"):
        if kind not in ("G", "Sd"):  # queries carry the data and nothing else
            raise ValueError(f"external opponents run in mode G or Sd,"
                             f" not {kind!r}")
        self.kind = kind
        self.name = name
        self.timeout = timeout
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1, errors="replace",
        )
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self):
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def ask(self, d) -> Hypothesis:
        text = format_sequence(d)
        try:
            assert self._proc.stdin is not None
            self._proc.stdin.write(f"Q {text}\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise OpponentError(f"opponent process is gone: {exc}") from None
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            raise OpponentError(
                f"opponent timed out after {self.timeout}s"
            ) from None
        if line is None:
            raise OpponentError("opponent closed its output")
        parts = line.strip().split(maxsplit=2)
        # the label in ASCII decimal digits, as `parse_sequence` reads values
        if (len(parts) != 3 or parts[0] != "H"
                or not (parts[1].isascii() and parts[1].isdigit())):
            raise OpponentError(f"malformed reply {line.strip()!r}")
        try:
            return Hypothesis(int(parts[1]), parse(parts[2]))
        except ValueError as exc:
            raise OpponentError(f"malformed reply {line.strip()!r}: {exc}") from None

    def as_learner(self) -> Learner:
        return Learner(self.name, self.kind, lambda d, ctx: self.ask(d))

    def close(self):
        # end the child before closing its output: the pump thread may be
        # blocked reading it, and the close would wait for that read
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        self._proc.terminate()
        try:
            self._proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
