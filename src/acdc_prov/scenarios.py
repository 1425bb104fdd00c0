"""Worked audit scenarios: enclave encapsulation and a remote voting booth.

Two families of ready-made provenance graphs and policies exercise the
engine end to end. The first records a trusted enclave encapsulating a
user's plaintext under contract; its policies separate "my inputs were
used" from "only my inputs were used", for both the inputs an activity
used and the sources a result was derived from. The second records a
voter walking a fixed ballot workflow (key generation, selection,
printing, verification, counting, receipt printing, optional exit) on a
voting machine acting on their behalf; its policies detect double voting,
blacklisted actors, and skipped workflow steps.

The policies and their environments are the ``<name>.pol`` and
``<name>.env.json`` files shipped in the package's ``corpus`` directory;
``corpus()`` reads them there. The graph documents shipped beside them
are rendered from the builders below by ``scripts/build_corpus_data.py``.
Each builder checks its vertex and edge records once with ``ProvGraph.extend``,
as ``storage.load_graph`` does a document's, so its graph arrives validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Mapping, Sequence

from .evaluator import evaluate
from .events import slice_by_agent
from .graph import LabeledEdge, ProvGraph, RelationLabel, Vertex, VertexKind, union
from .policy import BoundPolicy, Environment, bind, parse_policy
from .storage import load_environment

__all__ = [
    "VotingStep",
    "BALLOT_STEPS",
    "InvalidStepSequenceError",
    "build_encapsulate_event",
    "build_encapsulate_with_foreign_inputs",
    "build_voting_trace",
    "build_two_state_trace",
    "CorpusPolicy",
    "corpus",
    "corpus_by_name",
    "corpus_graphs",
    "ScenarioCheck",
    "SCENARIO_NAMES",
    "run_scenario",
]

_K = VertexKind
_R = RelationLabel


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------


def build_encapsulate_event(owner: str) -> ProvGraph:
    """Provenance of one enclave encapsulation run on behalf of ``owner``.

    An sgx node agent, acting for the owner's account, runs the
    Encapsulate activity under EncapsulateContract: it consumes the
    owner's plaintext, the contract, the enclave key and the owner's key,
    and produces a SecureCapsule derived from all four inputs. The capsule
    and the owner's inputs are attributed to the owner; the enclave key to
    the enclave.
    """
    owner_key = f"Key_{owner}"
    vertices = [
        Vertex(owner, _K.ACCOUNT_AGENT),
        Vertex("sgx", _K.NODE_AGENT),
        Vertex("Encapsulate", _K.ACTIVITY),
        Vertex("Plaintext", _K.DATA_ENTITY),
        Vertex("EncapsulateContract", _K.CONTRACT_ENTITY),
        Vertex("Key_SGX", _K.KEY_ENTITY),
        Vertex(owner_key, _K.KEY_ENTITY),
        Vertex("SecureCapsule", _K.DATA_ENTITY),
    ]
    edges = [
        LabeledEdge("sgx", owner, _R.ACTED_ON_BEHALF_OF),
        LabeledEdge("Encapsulate", "sgx", _R.WAS_ASSOCIATED_WITH),
    ]
    for used in ("Plaintext", "EncapsulateContract", "Key_SGX", owner_key):
        edges.append(LabeledEdge("Encapsulate", used, _R.USED))
    edges.append(LabeledEdge("SecureCapsule", "Encapsulate", _R.WAS_GENERATED_BY))
    for source in ("EncapsulateContract", owner_key, "Plaintext", "Key_SGX"):
        edges.append(LabeledEdge("SecureCapsule", source, _R.WAS_DERIVED_FROM))
    edges.append(LabeledEdge("Key_SGX", "sgx", _R.WAS_ATTRIBUTED_TO))
    for owned in ("Plaintext", owner_key, "SecureCapsule"):
        edges.append(LabeledEdge(owned, owner, _R.WAS_ATTRIBUTED_TO))
    return ProvGraph().extend(vertices, edges)


def build_encapsulate_with_foreign_inputs(owner: str, outsider: str) -> ProvGraph:
    """Encapsulation for ``owner`` that also consumed an outsider's inputs.

    Extends the clean run with a key and a plaintext attributed to
    ``outsider`` and fed to Encapsulate as extra inputs. The capsule is
    still derived only from the owner's material, so the derivation
    policies keep holding while the usage-exclusivity ones break.
    """
    key, data = f"Key_{outsider}", f"Plaintext_{outsider}"
    vertices = [Vertex(outsider, _K.ACCOUNT_AGENT), Vertex(key, _K.KEY_ENTITY)]
    vertices.append(Vertex(data, _K.DATA_ENTITY))
    edges = [LabeledEdge("Encapsulate", vid, _R.USED) for vid in (key, data)]
    edges += [LabeledEdge(vid, outsider, _R.WAS_ATTRIBUTED_TO) for vid in (key, data)]
    return build_encapsulate_event(owner).extend(vertices, edges)


class VotingStep(Enum):
    """The ballot workflow functions, in their mandatory order."""

    KEY_GEN = "KeyGen"
    SELECT = "Select"
    PRINT = "Print"
    VERIFY = "Verify"
    COUNT = "Count"
    PRINT_RECEIPT = "PrintReceipt"
    EXIT = "Exit"


BALLOT_STEPS = tuple(step for step in VotingStep if step is not VotingStep.EXIT)

# What each step produces; the tally belongs to the machine, everything
# else to the voter. Exit produces nothing.
_STEP_OUTPUTS: Mapping[VotingStep, tuple[str, VertexKind] | None] = {
    VotingStep.KEY_GEN: ("VoterKey", _K.KEY_ENTITY),
    VotingStep.SELECT: ("Ballot", _K.DATA_ENTITY),
    VotingStep.PRINT: ("PaperBallot", _K.DATA_ENTITY),
    VotingStep.VERIFY: ("VerifiedBallot", _K.DATA_ENTITY),
    VotingStep.COUNT: ("Tally", _K.DATA_ENTITY),
    VotingStep.PRINT_RECEIPT: ("Receipt", _K.DATA_ENTITY),
    VotingStep.EXIT: None,
}


class InvalidStepSequenceError(ValueError):
    """The requested steps do not form a legal ballot workflow prefix."""


def build_voting_trace(
    voter: str, machine: str, steps: Sequence[VotingStep]
) -> ProvGraph:
    """Provenance of ``voter`` running ``steps`` on ``machine``.

    ``steps`` must be a prefix of the ballot workflow, optionally closed
    by Exit. Entering the booth already leaves a trace: even an empty
    step list yields the voter, the machine, and the machine acting on
    the voter's behalf. Each executed step adds its activity, associated
    with the machine, using the step's contract; steps with an output add
    it as generated by the activity, derived from the contract, and
    attributed to the voter (the tally is attributed to the machine).
    """
    steps = tuple(steps)
    core = steps[:-1] if steps and steps[-1] is VotingStep.EXIT else steps
    if VotingStep.EXIT in core:
        raise InvalidStepSequenceError("Exit can only appear as the final step")
    if core != BALLOT_STEPS[: len(core)]:
        order = " -> ".join(s.value for s in BALLOT_STEPS)
        raise InvalidStepSequenceError(
            f"steps must follow {order} in order from the start"
        )

    vertices = [Vertex(voter, _K.ACCOUNT_AGENT), Vertex(machine, _K.NODE_AGENT)]
    edges = [LabeledEdge(machine, voter, _R.ACTED_ON_BEHALF_OF)]
    for step in steps:
        activity = step.value
        contract = f"{step.value}Contract"
        vertices += [Vertex(activity, _K.ACTIVITY), Vertex(contract, _K.CONTRACT_ENTITY)]
        edges.append(LabeledEdge(activity, machine, _R.WAS_ASSOCIATED_WITH))
        edges.append(LabeledEdge(activity, contract, _R.USED))
        output = _STEP_OUTPUTS[step]
        if output is not None:
            output_id, output_kind = output
            owner = machine if step is VotingStep.COUNT else voter
            vertices.append(Vertex(output_id, output_kind))
            edges.append(LabeledEdge(output_id, activity, _R.WAS_GENERATED_BY))
            edges.append(LabeledEdge(output_id, contract, _R.WAS_DERIVED_FROM))
            edges.append(LabeledEdge(output_id, owner, _R.WAS_ATTRIBUTED_TO))
    return ProvGraph().extend(vertices, edges)


def build_two_state_trace(
    voter: str, first_machine: str, second_machine: str
) -> ProvGraph:
    """A completed trace plus a fresh key-generation attempt elsewhere.

    Models the same voter coming back for a second ballot on another
    machine: the first trace ran to completion, the second has only
    reached KeyGen. The second state's vertices are namespaced under the
    machine id, so the two traces share exactly the voter vertex.
    """
    first = build_voting_trace(voter, first_machine, BALLOT_STEPS)
    second = build_voting_trace(voter, second_machine, (VotingStep.KEY_GEN,))
    keep = {voter, second_machine}
    mapping = {
        vid: f"{second_machine}/{vid}" for vid in second.vertices if vid not in keep
    }
    return union(first, second.renamed(mapping))


# ---------------------------------------------------------------------------
# policy corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusPolicy:
    """A named policy with source text and its default environment."""

    name: str
    source: str
    environment: Environment

    def bound(
        self, env: Environment | None = None, strict: bool = False
    ) -> BoundPolicy:
        """Parse and bind this policy (against ``env`` when given)."""
        return bind(
            parse_policy(self.source),
            self.environment if env is None else env,
            strict=strict,
        )


_CORPUS = resources.files(__package__).joinpath("corpus")

_STEP_POLICY_NAMES = (
    "keygen_done",
    "select_done",
    "print_done",
    "verify_done",
    "count_done",
    "print_receipt_done",
)

_CORPUS_NAMES = (
    *(f"p{i}" for i in range(1, 10)),
    "encapsulate_all",
    "receipt_attributed",
    "blacklisted_actor",
    *_STEP_POLICY_NAMES,
)


def _environment(name: str) -> Environment:
    return load_environment(_CORPUS.joinpath(f"{name}.env.json").read_bytes())


def corpus() -> list[CorpusPolicy]:
    """The built-in policy corpus, read afresh from the package's
    ``corpus`` directory on each call: every ``<name>.pol`` parses and
    binds cleanly against its default ``<name>.env.json``."""
    return [
        CorpusPolicy(
            name,
            _CORPUS.joinpath(f"{name}.pol").read_text(encoding="utf-8"),
            _environment(name),
        )
        for name in _CORPUS_NAMES
    ]


def corpus_by_name() -> dict[str, CorpusPolicy]:
    """The corpus keyed by entry name."""
    return {entry.name: entry for entry in corpus()}


def corpus_graphs() -> dict[str, ProvGraph]:
    """The built-in scenario graphs, keyed by the name they ship under."""
    return {
        "empty": ProvGraph(),
        "encapsulate_bob": build_encapsulate_event("Bob"),
        "encapsulate_foreign_inputs": build_encapsulate_with_foreign_inputs(
            "Bob", "Mallory"
        ),
        "alice_trace_full": build_voting_trace("Alice", "m1", BALLOT_STEPS),
        "alice_two_state": build_two_state_trace("Alice", "m1", "m2"),
        "mallory_trace_to_count": build_voting_trace(
            "Mallory", "m1", BALLOT_STEPS[:5]
        ),
        "bob_trace_full": build_voting_trace("Bob", "m1", BALLOT_STEPS),
    }


# ---------------------------------------------------------------------------
# scenario walkthroughs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioCheck:
    """One expected-vs-actual policy outcome within a scenario."""

    label: str
    policy: str
    expected: bool
    actual: bool

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def _check(
    label: str,
    entry: CorpusPolicy,
    graph: ProvGraph,
    expected: bool,
    env: Environment | None = None,
) -> ScenarioCheck:
    verdict = evaluate(entry.bound(env), graph)
    return ScenarioCheck(label, entry.name, expected, verdict.satisfied)


def _scenario_encapsulate(entries: Mapping[str, CorpusPolicy]) -> list[ScenarioCheck]:
    base = build_encapsulate_event("Bob")
    tampered = build_encapsulate_with_foreign_inputs("Bob", "Mallory")
    with_foreign = {
        "p1": True,
        "p2": True,
        "p3": False,
        "p4": False,
        "p5": True,
        "p6": True,
        "p7": True,
        "p8": True,
        "p9": True,
        "encapsulate_all": False,
    }
    checks = [
        _check(f"{name} on Bob's clean encapsulation", entries[name], base, True)
        for name in with_foreign
    ]
    checks += [
        _check(f"{name} with Mallory's inputs mixed in", entries[name], tampered, expected)
        for name, expected in with_foreign.items()
    ]
    return checks


def _scenario_duplicate_vote(entries: Mapping[str, CorpusPolicy]) -> list[ScenarioCheck]:
    cases = [
        ("Alice already holds a receipt: refuse a second ballot",
         build_voting_trace("Alice", "m1", BALLOT_STEPS), True),
        ("no receipt printed yet: let Alice continue",
         build_voting_trace("Alice", "m1", BALLOT_STEPS[:5]), False),
        ("receipt found across machines: refuse the resumed attempt",
         build_two_state_trace("Alice", "m1", "m2"), True),
    ]
    receipt = entries["receipt_attributed"]
    return [
        _check(label, receipt, slice_by_agent(trace, "Alice"), expected)
        for label, trace, expected in cases
    ]


def _scenario_blacklist(entries: Mapping[str, CorpusPolicy]) -> list[ScenarioCheck]:
    trace = build_voting_trace("Bob", "m1", BALLOT_STEPS)
    return [
        _check(
            "Bob is blacklisted: his trace is flagged",
            entries["blacklisted_actor"],
            trace,
            True,
            env=_environment("blacklist_bob"),
        ),
        _check(
            "empty blacklist: nothing to flag",
            entries["blacklisted_actor"],
            trace,
            False,
        ),
    ]


def _scenario_manipulation(entries: Mapping[str, CorpusPolicy]) -> list[ScenarioCheck]:
    checks = []
    for done in range(len(BALLOT_STEPS) + 1):
        trace = build_voting_trace("Mallory", "m1", BALLOT_STEPS[:done])
        for position, name in enumerate(_STEP_POLICY_NAMES):
            checks.append(
                _check(
                    f"{name} after {done} of {len(BALLOT_STEPS)} steps",
                    entries[name],
                    trace,
                    position < done,
                )
            )
    return checks


_SCENARIOS = {
    "encapsulate": _scenario_encapsulate,
    "duplicate-vote": _scenario_duplicate_vote,
    "blacklist": _scenario_blacklist,
    "manipulation": _scenario_manipulation,
}

SCENARIO_NAMES: tuple[str, ...] = tuple(_SCENARIOS)


def run_scenario(name: str) -> list[ScenarioCheck]:
    """Run a named scenario and report its expected-vs-actual outcomes."""
    try:
        runner = _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        ) from None
    return runner(corpus_by_name())
