"""Learner evaluation under the four interaction modes.

A learner is a function from evidence to hypotheses; the mode fixes what
the learner gets to see at step n of an informant presentation:

  G    the full sequence of the first n examples
  Psd  the set of the first n examples, plus the count n
  Sd   the set of the first n examples
  It   only its previous hypothesis and the n-th example

Iterative runs start from a designated empty-extension hypothesis, so the
hypothesis stream is total from step 0 in every mode. Every mode reads the
informant through its one buffer (`evidence._read`), so every mode refuses
the same bad informants. `_handed` alone says what a G, Psd or Sd learner
is handed; every mode passes the context last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .evidence import EvidenceIndex, Informant, _read, content, prefixes
from .hypothesis import Hypothesis, hypothesis_for
from .upset import EMPTY, NATURALS

KINDS = ("G", "Psd", "Sd", "It")

INITIAL_HYPOTHESIS = hypothesis_for(EMPTY)


class EvalContext:
    """Carries per-run state: fresh label supply and a memo for wrappers.

    Fresh labels are odd; labels derived from extensions are even, so the
    two supplies never collide.
    """

    def __init__(self):
        self.memo: dict = {}
        self._counter = 0

    def fresh_label(self) -> int:
        self._counter += 1
        return 2 * self._counter - 1


@dataclass(frozen=True)
class Learner:
    name: str
    kind: str
    fn: Callable = field(compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown interaction mode {self.kind!r}")


@dataclass(frozen=True)
class HypSequence:
    """Hypotheses emitted along a presentation; items[n] answers prefix n."""

    items: tuple[Hypothesis, ...]
    learner_name: str
    informant: Informant

    @cached_property
    def index(self) -> EvidenceIndex:
        """The informant's evidence index, read to this sequence's length."""
        return _read(self.informant, len(self) - 1)[1]

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i) -> Hypothesis:
        return self.items[i]

    @property
    def final(self) -> Hypothesis:
        return self.items[-1]


def _handed(kind: str, d, dset) -> tuple:
    """A learner's arguments before the context at prefix d, content dset."""
    if kind == "G":
        return (d,)
    if kind == "Psd":
        return (dset, len(d))
    return (dset,)


def run(
    learner: Learner,
    informant: Informant,
    horizon: int,
    ctx: EvalContext | None = None,
) -> HypSequence:
    """Evaluate the learner on prefixes 0..horizon of the informant.

    The informant's buffer (`evidence._read`) is read to `horizon` before
    the learner's first step. It reads each example once, whatever reads
    the informant, and keeps each prefix's masks for the judging. A G,
    Psd or Sd learner is handed O(1) views of it (`evidence.prefixes`),
    which build their items only if read; an It learner is handed the
    example alone. So the run's own cost is linear in `horizon`, up to
    the masks, which are as wide as the largest value shown; what the
    learner does comes on top.
    """
    if horizon not in NATURALS:
        raise ValueError("horizon must be a natural")
    if ctx is None:
        ctx = EvalContext()
    kind, fn = learner.kind, learner.fn
    if kind == "It":
        items = [INITIAL_HYPOTHESIS]
        for ex in _read(informant, horizon)[0][:horizon]:
            items.append(fn(items[-1], ex, ctx))
    else:
        items = [fn(*_handed(kind, d, dset), ctx)
                 for d, dset in prefixes(informant, horizon)]
    return HypSequence(tuple(items), learner.name, informant)


def as_full_information(learner: Learner) -> Learner:
    """View any learner as a G learner over whole sequences."""
    if learner.kind == "G":
        return learner
    if learner.kind == "It":

        def fn(d, ctx):
            h = INITIAL_HYPOTHESIS
            for ex in d:
                h = learner.fn(h, ex, ctx)
            return h

    else:
        fn = lambda d, ctx: learner.fn(*_handed(learner.kind, d, content(d)),
                                       ctx)
    return Learner(f"{learner.name}[G]", "G", fn)


def with_fresh_labels(learner: Learner) -> Learner:
    """Same extensions and delays, but every answer gets a new odd label.

    Relabelling never changes what a run denotes, only whether its labels
    can settle, so it separates syntactic from semantic convergence.
    """

    def fn(*args):
        h = learner.fn(*args)
        return Hypothesis(args[-1].fresh_label(), h.extension, h.delay)

    return Learner(f"{learner.name}[fresh]", learner.kind, fn)
