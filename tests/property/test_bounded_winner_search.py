"""The bounded winner search chooses what pricing every alternative chooses.

``PhysicalPlanner._cheapest`` walks a group's alternatives ranked by their
own cumulative cost and stops pricing enforcers once the next
alternative's own cost is strictly above the best enforced total found.
That is exact because enforcers never lower a cost: their components are
non-negative (``tests/unit/test_cost_model.py`` pins that for both cost
models) and IEEE addition is monotone, so a skipped alternative can
neither win nor tie.

Over random non-negative cost vectors — with forced ties, 1-ulp
neighbours, and random exchange and sort needs under both cost models —
the bounded walk must choose the alternative that
:func:`helpers.linear_cheapest` (every candidate priced, the first strict
minimum in list order) chooses, with the same cost bits, and the plan it
returns must satisfy the requirement.
"""

import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import linear_cheapest, make_company_store
from repro.common.config import SystemConfig
from repro.cost.model import Cost, CostModel
from repro.exec.physical import PhysExchange, PhysValues
from repro.planner.budget import PlanningBudget
from repro.planner.physical import (
    PhysicalPlanner,
    Requirement,
    _Alternative,
    _ranked,
)
from repro.rel.traits import EMPTY_COLLATION, Collation, Distribution
from repro.stats.estimator import Estimator

DISTRIBUTIONS = (
    Distribution.single(),
    Distribution.broadcast(),
    Distribution.hash((0,)),
    Distribution.hash((1,)),
)
COLLATIONS = (
    EMPTY_COLLATION,
    Collation(((0, True),)),
    Collation(((0, True), (1, True))),
    Collation(((1, False),)),
)
REQUIREMENTS = tuple(
    make(collation)
    for collation in COLLATIONS
    for make in (Requirement.any, Requirement.single)
) + (
    Requirement.broadcast(),
    Requirement.hash((0,)),
    Requirement.hash((1,)),
    Requirement.any_hash((0,)),
)


@functools.lru_cache(maxsize=None)
def planner(fixes: bool) -> PhysicalPlanner:
    store = make_company_store()
    config = SystemConfig.ic_plus().with_(cost_model_fixes=fixes)
    return PhysicalPlanner(
        store, config, Estimator(store, True), CostModel(config),
        PlanningBudget(10**7),
    )


def bits(cost):
    return tuple(
        float(part).hex()
        for part in (cost.cpu, cost.memory, cost.io, cost.network, cost.value)
    )


@st.composite
def groups(draw):
    """Candidates whose own costs collide, sit an ulp apart or differ, over
    traits that need no enforcer, an exchange, a sort or both; some own
    exactly another's enforced total, so enforced totals tie across
    different own costs, and the list is shuffled."""
    req, fixes = draw(st.sampled_from(REQUIREMENTS)), draw(st.booleans())
    base = draw(st.floats(0.0, 1e9, allow_nan=False))
    near = st.sampled_from(
        (base, math.nextafter(base, math.inf), math.nextafter(base, 0.0), 0.0)
    )
    component = near | st.floats(0.0, 1e9, allow_nan=False)

    def leaf(own, rows):
        width = draw(st.sampled_from((1, 4)) | st.integers(0, 40))
        return _Alternative(
            PhysValues, ((), ()), (), width,
            draw(st.sampled_from(DISTRIBUTIONS)),
            draw(st.sampled_from(COLLATIONS)), rows, own,
            draw(st.integers(1, 8)),
        )

    candidates = []
    for _ in range(draw(st.integers(1, 6))):
        own = Cost(draw(component), draw(component), 0.0, draw(component))
        rows = draw(st.sampled_from((0.0, 1.0, 1000.0)) | st.floats(0.0, 1e7))
        plan = leaf(own, rows)
        if draw(st.booleans()):
            # Shipped once already: distribution factor 1 from here up.
            plan = _Alternative(
                PhysExchange, (plan.distribution,), (plan,), plan.width,
                plan.distribution, plan.collation, plan.rows_est, Cost(),
            )
        candidates.append(plan)
    for _ in range(draw(st.integers(0, 2))):
        # No rows, so no enforcer costs anything: its total is its own.
        source = draw(st.sampled_from(candidates))
        _, total = linear_cheapest(planner(fixes), [source], req)
        candidates.append(leaf(total, 0.0))
    return draw(st.permutations(candidates)), req, fixes


@settings(max_examples=400, deadline=None)
@given(groups())
def test_bounded_walk_picks_the_linear_first_strict_minimum(group):
    candidates, req, fixes = group
    search = planner(fixes)
    got = search._cheapest(_ranked(candidates), req)
    want_index, want_total = linear_cheapest(search, candidates, req)

    position = {id(plan): index for index, plan in enumerate(candidates)}
    chosen = got
    while id(chosen) not in position:  # under the enforcers it priced
        chosen = chosen.inputs[0]
    assert position[id(chosen)] == want_index
    assert bits(got.total_cost()) == bits(want_total)
    assert req.distribution_satisfied(got.distribution)
    assert got.collation.satisfies(req.collation)
