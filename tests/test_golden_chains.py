"""Replay the CQ2 pin corpus, and hold each plan to a brute-force chain oracle.

The corpus pins what ``task_plan`` gave; the oracle says what it must give.
It reads each corpus graph by iteration only, and orders an owner's members
by trying every permutation (a chain has at most six members): the members
order only if exactly one permutation has consecutive pairs equal to the set
of member-to-member links. Links to non-members are ignored.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

import pytest

from golden_chains import CORPUS, graphs, outcomes
from helpers import assert_outcomes_match_corpus
from ontobot.graph import Term
from ontobot.namespaces import OBOT, PKO
from ontobot.reasoner import ChainError, KnowledgeBase


def test_task_plans_match_corpus():
    assert_outcomes_match_corpus(CORPUS, outcomes)


class Refusal(NamedTuple):
    """The first owner whose chain cannot be ordered, and every reason the oracle confirms for it."""

    chain: str
    owner: Term
    reasons: frozenset[str]


def permutation_order(members: list[Term], links: set[tuple[Term, Term]]) -> list[Term] | None:
    found = [order for order in permutations(members) if set(zip(order, order[1:])) == links]
    return list(found[0]) if len(found) == 1 else None


def chain_faults(members: list[Term], links: set[tuple[Term, Term]]) -> frozenset[str]:
    """The reasons a refusal may give for a chain with these member-to-member links.

    Forks and joins show while the links are read, so any one met first is
    named ahead of a count of heads or an unconnected piece.
    """
    successors = {m: [o for s, o in links if s is m] for m in members}
    predecessors = {m: [s for s, o in links if o is m] for m in members}
    faults = {f"fork at {m.n3()}" for m in members if len(successors[m]) > 1}
    faults |= {f"join at {m.n3()}" for m in members if len(predecessors[m]) > 1}
    if faults:
        return frozenset(faults)
    heads = [m for m in members if not predecessors[m]]
    if not heads:
        return frozenset({"chain contains a cycle"})
    if len(heads) > 1:
        return frozenset({f"{len(heads)} chain heads (incomplete chain)"})
    reached, node = {heads[0]}, heads[0]
    while successors[node] and successors[node][0] not in reached:
        node = successors[node][0]
        reached.add(node)
    return frozenset() if len(reached) == len(members) else frozenset({"chain does not connect all elements"})


def oracle_plan(activity: Term, objects: dict[tuple[Term, Term], list[Term]]) -> list | Refusal:
    """``[(procedure, [(step, [action, ...]), ...]), ...]``, or the refusal of the first owner that cannot be ordered.

    Procedures come in insertion order; within one, its step chain is ordered
    first, then each step's action chain, in the order the oracle gave the steps.
    """

    def order(owner: Term, member: Term, link: Term, chain: str) -> list[Term] | Refusal:
        members = objects.get((owner, member), [])
        links = {(m, o) for m in members for o in objects.get((m, link), []) if o in members}
        ordered = permutation_order(members, links)
        return Refusal(chain, owner, chain_faults(members, links)) if ordered is None else ordered

    plan = []
    for procedure in objects.get((activity, PKO.executesProcedure), []):
        steps = order(procedure, PKO.hasStep, PKO.nextStep, "pko:nextStep")
        if isinstance(steps, Refusal):
            return steps
        planned = []
        for step in steps:
            actions = order(step, PKO.requiresAction, OBOT.nextAction, "obot:nextAction")
            if isinstance(actions, Refusal):
                return actions
            planned.append((step, actions))
        plan.append((procedure, planned))
    return plan


def test_task_plans_match_a_brute_force_chain_oracle():
    for graph, activities in graphs():
        objects: dict[tuple[Term, Term], list[Term]] = {}
        for s, p, o in graph:
            objects.setdefault((s, p), []).append(o)
        kb = KnowledgeBase(graph)
        for activity in activities:
            expected = oracle_plan(activity, objects)
            if isinstance(expected, Refusal):
                with pytest.raises(ChainError) as excinfo:
                    kb.task_plan(activity)
                exc = excinfo.value
                # The corpus graphs carry no labels, so an owner is named by its IRI.
                assert (exc.property_name, exc.owner) == (expected.chain, expected.owner.value), activity
                assert exc.reason in expected.reasons, (activity, exc.reason, expected.reasons)
                continue
            plan = kb.task_plan(activity)
            got = [(p.procedure, [(s.step, [a.action for a in s.actions]) for s in p.steps]) for p in plan.procedures]
            assert got == expected, activity
