"""Execution-plan fragmentation (Section 3.2.3, Algorithm 1).

A fully optimised physical tree is converted into *fragments*: subtrees
that can each execute wholly at one processing site.  Walking the tree
depth-first, every exchange operator is split into a **sender** (which
becomes the root of a new fragment) and a **receiver** (which becomes a
leaf of the current fragment).  The fragment containing the original root
is the *root fragment* and serves results to the user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.physical import PhysExchange, PhysNode, walk_physical
from repro.rel.traits import Collation, Distribution, EMPTY_COLLATION, satisfies


class PhysReceiver(PhysNode):
    """Execution-only leaf: consumes rows sent by a child fragment.

    If ``collation`` is set, the receiver merge-sorts the inbound sorted
    streams instead of concatenating them (a merging exchange).
    """

    param_names = ("exchange_id", "fields", "distribution", "collation")

    def __init__(
        self,
        exchange_id: int,
        fields: Sequence[str],
        distribution: Distribution,
        collation: Collation = EMPTY_COLLATION,
    ):
        super().__init__((), fields, distribution, collation)
        self.exchange_id = exchange_id

    def _build_digest(self) -> str:
        return f"PReceiver(#{self.exchange_id})[{self._traits()}]"

    def _explain_self(self) -> str:
        return f"PhysReceiver[{self._traits()}](exchange=#{self.exchange_id})"


@dataclass
class SenderSpec:
    """How a fragment's output is shipped to its consumer."""

    exchange_id: int
    target: Distribution
    merge_collation: Collation = EMPTY_COLLATION


@dataclass
class Fragment:
    """One executable subtree plus its shipping specification, and what
    a run derives from the tree alone, derived once and kept: a cached
    plan's repeats walk no tree."""

    fragment_id: int
    root: PhysNode
    sender: Optional[SenderSpec]  # None for the root fragment
    child_ids: List[int] = field(default_factory=list)
    #: True for fragments spliced in by mid-query re-optimization
    #: (:mod:`repro.adaptive.midquery`); EXPLAIN ANALYZE flags them.
    replanned: bool = False
    #: ``[(op_id, operator signature)]`` of the operators cardinality
    #: feedback harvests here: derived on the first harvest
    #: (``FeedbackRegistry.harvest``) and kept with the tree, which a
    #: cached plan's repeats execute again.
    feedback_keys: Optional[List[Tuple[int, str]]] = field(
        default=None, repr=False, compare=False
    )
    #: ``(variant count, per-operator elapsed factors or None, source
    #: positions)`` for the task graph (``ExecutionEngine._variants``).
    variants: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def is_root(self) -> bool:
        return self.sender is None

    def operators(self) -> Tuple[PhysNode, ...]:
        return self._operators  # pre-order

    @cached_property
    def _operators(self) -> Tuple[PhysNode, ...]:
        return tuple(walk_physical(self.root))

    @cached_property
    def at_one_site(self) -> bool:
        """Whether the fragment runs at the coordinator alone."""
        return satisfies(self.root.distribution, Distribution.single())

    def explain(self) -> str:
        head = (
            "RootFragment"
            if self.is_root
            else (
                f"Fragment #{self.fragment_id} -> sender"
                f"({self.sender.target}, exchange #{self.sender.exchange_id})"
            )
        )
        return f"{head}\n{self.root.explain(indent=1)}"


def exchange_producers(fragments: Sequence[Fragment]) -> Dict[int, Fragment]:
    """Exchange id -> the fragment whose sender feeds it: how a walk over
    executed fragment trees crosses a :class:`PhysReceiver` leaf."""
    return {
        fragment.sender.exchange_id: fragment
        for fragment in fragments
        if fragment.sender is not None
    }


class SeamObserver:
    """What may watch one execution at its fragment seams.

    A completed non-root fragment is a materialisation point: its output
    exists in full before any consumer runs.  The engine calls every
    attached observer there, in list order; the defaults do nothing, so an
    observer overrides only the hooks it needs.  Which observers a run
    gets is decided in ``ExecutionEngine._observers`` and nowhere else.
    """

    def capture(self, fragment: Fragment, site: int, out) -> None:
        """One site's output of a non-root fragment (a row list or a
        columnar batch), before it is routed."""

    def checkpoint(
        self, fragments: List[Fragment], index: int, ctx, coordinator: int
    ) -> Optional[List[Fragment]]:
        """Non-root ``fragments[index]`` completed on every site: return a
        replacement for the un-executed ``fragments[index + 1:]``, or None
        to keep it."""
        return None

    def finish(self, fragments: Sequence[Fragment]) -> None:
        """The run succeeded: every fragment executed, the deadline held."""

    def close(self) -> None:
        """The run ended, successfully or not: undo what was installed."""


def number_operators(root: PhysNode, first_op_id: int = 0) -> int:
    """Give every operator under ``root`` its ``op_id`` (pre-order, counting
    up from ``first_op_id``); returns the next free id.

    The id is the operator's accounting key for the whole execution: work
    units, rows in/out, variant scaling and ``operator_actuals`` are all
    keyed by it, never by object identity.
    """
    next_id = first_op_id
    for op in walk_physical(root):
        op.op_id = next_id
        next_id += 1
    return next_id


def fragment_plan(
    root: PhysNode,
    first_fragment_id: int = 0,
    first_exchange_id: int = 0,
    first_op_id: int = 0,
) -> List[Fragment]:
    """Algorithm 1: split ``root`` into fragments at each exchange.

    Returns fragments in dependency order (children before parents); the
    root fragment is last.  Ids count up from ``first_*_id``, so a suffix
    spliced into a running query is numbered past the ids in use from the
    start rather than renumbered afterwards; operators likewise
    (:func:`number_operators`), fragment by fragment.  A fragment tree owns
    its nodes — leaves are copied like inner nodes — so numbering one
    never writes to a (possibly cached) plan.
    """
    fragments: List[Fragment] = []
    next_ids = {"exchange": first_exchange_id, "fragment": first_fragment_id}

    def split(node: PhysNode) -> Tuple[PhysNode, List[int]]:
        """Replace exchanges under ``node``; returns (new tree, child ids)."""
        child_ids: List[int] = []
        new_inputs = []
        for child in node.inputs:
            new_child, ids = split(child)  # type: ignore[arg-type]
            new_inputs.append(new_child)
            child_ids.extend(ids)
        rebuilt = node.copy(new_inputs)
        if isinstance(rebuilt, PhysExchange):
            exchange_id = next_ids["exchange"]
            next_ids["exchange"] += 1
            sender = SenderSpec(
                exchange_id=exchange_id,
                target=rebuilt.distribution,
                merge_collation=rebuilt.collation,
            )
            fragment_id = next_ids["fragment"]
            next_ids["fragment"] += 1
            fragments.append(
                Fragment(
                    fragment_id=fragment_id,
                    root=rebuilt.input,
                    sender=sender,
                    child_ids=child_ids,
                )
            )
            receiver = PhysReceiver(
                exchange_id,
                rebuilt.fields,
                rebuilt.distribution,
                rebuilt.collation,
            ).costed(rebuilt.rows_est)
            return receiver, [fragment_id]
        return rebuilt, child_ids

    new_root, child_ids = split(root)
    del split  # a recursive closure and its own cell form a cycle: break it
    fragment_id = next_ids["fragment"]
    fragments.append(
        Fragment(
            fragment_id=fragment_id,
            root=new_root,
            sender=None,
            child_ids=child_ids,
        )
    )
    for fragment in fragments:
        first_op_id = number_operators(fragment.root, first_op_id)
    return fragments
