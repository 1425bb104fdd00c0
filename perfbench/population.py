"""Seeded provenance histories with answers known from their construction.

A population is a list of voters, each with one or more booth sessions, and
a list of encapsulation owners, some of which are tampered with (their
enclave run also used another owner's key and plaintext). Documents are
written straight from vertex and edge records, in the canonical form
``save_graph`` produces, so building a history costs time linear in its
size and never calls the program under test.

Every expected answer -- slice contents, verdicts with their witnesses and
counterexamples, canonical bytes, and the error raised by an injected bad
edge -- is derived here from the records, independently of the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

FORMAT_VERSION = "acdc-prov/1"

# Ballot workflow in its mandatory order, with each step's output vertex.
STEPS = ("KeyGen", "Select", "Print", "Verify", "Count", "PrintReceipt")
OUTPUTS = {
    "KeyGen": ("VoterKey", "key_entity"),
    "Select": ("Ballot", "data_entity"),
    "Print": ("PaperBallot", "data_entity"),
    "Verify": ("VerifiedBallot", "data_entity"),
    "Count": ("Tally", "data_entity"),
    "PrintReceipt": ("Receipt", "data_entity"),
}
STEP_POLICIES = {
    "keygen_done": "KeyGen",
    "select_done": "Select",
    "print_done": "Print",
    "verify_done": "Verify",
    "print_receipt_done": "PrintReceipt",
    "receipt_attributed": "PrintReceipt",
}
ENCAPSULATION_POLICIES = tuple(f"p{i}" for i in range(1, 10)) + ("encapsulate_all",)
VOTING_POLICIES = tuple(STEP_POLICIES) + ("count_done", "blacklisted_actor")


@dataclass(frozen=True)
class Session:
    """One voter's walk through a booth: the first ``steps`` ballot steps."""

    voter: str
    machine: str
    steps: int

    def activity(self, step: str) -> str:
        return f"{self.machine}/{step}"

    def output(self, step: str) -> str:
        return f"{self.machine}/{OUTPUTS[step][0]}"

    @property
    def done(self) -> tuple[str, ...]:
        return STEPS[: self.steps]


@dataclass(frozen=True)
class Owner:
    """An encapsulation owner; ``foreign`` names the owner whose key and
    plaintext this owner's enclave run also consumed, if any."""

    name: str
    foreign: str | None = None

    @property
    def activity(self) -> str:
        return f"{self.name}/Encapsulate"

    @property
    def capsule(self) -> str:
        return f"{self.name}/SecureCapsule"

    @property
    def plaintext(self) -> str:
        return f"{self.name}/Plaintext"

    @property
    def key(self) -> str:
        return f"Key_{self.name}"

    @property
    def enclave(self) -> str:
        return f"{self.name}/sgx"

    @property
    def enclave_key(self) -> str:
        return f"{self.name}/Key_SGX"

    def environment(self) -> bytes:
        """Environment document that re-aims the encapsulation policies
        at this owner."""
        constants = {
            "Bob": self.name,
            "Encapsulate": self.activity,
            "EncapsulateContract": "EncapsulateContract",
            "SecureCapsule": self.capsule,
        }
        return json.dumps({"constants": constants, "sets": {}}).encode("utf-8")


@dataclass
class History:
    """Vertex and edge records of one provenance history."""

    sessions: list[Session] = field(default_factory=list)
    owners: list[Owner] = field(default_factory=list)
    blacklist: list[str] = field(default_factory=list)
    kinds: dict[str, str] = field(default_factory=dict)
    edges: list[tuple[str, str, str]] = field(default_factory=list)

    # -- construction ----------------------------------------------------

    def _vertex(self, vid: str, kind: str) -> None:
        self.kinds[vid] = kind

    def _edge(self, src: str, dst: str, label: str) -> None:
        self.edges.append((src, dst, label))

    def add_session(self, session: Session) -> None:
        self.sessions.append(session)
        self._vertex(session.voter, "account_agent")
        self._vertex(session.machine, "node_agent")
        self._edge(session.machine, session.voter, "ActedOnBehalfOf")
        for step in session.done:
            activity, contract = session.activity(step), f"{step}Contract"
            self._vertex(activity, "activity")
            self._vertex(contract, "contract_entity")
            self._edge(activity, session.machine, "WasAssociatedWith")
            self._edge(activity, contract, "Used")
            output, kind = session.output(step), OUTPUTS[step][1]
            owner = session.machine if step == "Count" else session.voter
            self._vertex(output, kind)
            self._edge(output, activity, "WasGeneratedBy")
            self._edge(output, contract, "WasDerivedFrom")
            self._edge(output, owner, "WasAttributedTo")

    def add_owner(self, owner: Owner) -> None:
        self.owners.append(owner)
        o = owner
        for vid, kind in (
            (o.name, "account_agent"),
            (o.enclave, "node_agent"),
            (o.activity, "activity"),
            (o.plaintext, "data_entity"),
            ("EncapsulateContract", "contract_entity"),
            (o.enclave_key, "key_entity"),
            (o.key, "key_entity"),
            (o.capsule, "data_entity"),
        ):
            self._vertex(vid, kind)
        self._edge(o.enclave, o.name, "ActedOnBehalfOf")
        self._edge(o.activity, o.enclave, "WasAssociatedWith")
        inputs = (o.plaintext, "EncapsulateContract", o.enclave_key, o.key)
        for used in inputs:
            self._edge(o.activity, used, "Used")
            self._edge(o.capsule, used, "WasDerivedFrom")
        self._edge(o.capsule, o.activity, "WasGeneratedBy")
        self._edge(o.enclave_key, o.enclave, "WasAttributedTo")
        for owned in (o.plaintext, o.key, o.capsule):
            self._edge(owned, o.name, "WasAttributedTo")

    def link_foreign_inputs(self) -> None:
        """Feed each tampered owner's enclave the foreign key and plaintext.
        Called once every owner's own records exist."""
        by_name = {o.name: o for o in self.owners}
        for o in self.owners:
            if o.foreign is not None:
                other = by_name[o.foreign]
                self._edge(o.activity, other.key, "Used")
                self._edge(o.activity, other.plaintext, "Used")

    # -- documents -------------------------------------------------------

    def document(self, extra_edge: tuple[str, str, str] | None = None) -> bytes:
        """Canonical graph document, optionally with one extra edge record."""
        edges = self.edges if extra_edge is None else [*self.edges, extra_edge]
        doc = {
            "version": FORMAT_VERSION,
            "vertices": [{"id": v, "kind": self.kinds[v]} for v in sorted(self.kinds)],
            "edges": [
                {"src": s, "dst": d, "label": lab} for s, d, lab in sorted(edges)
            ],
        }
        return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    @property
    def size(self) -> tuple[int, int]:
        return len(self.kinds), len(self.edges)

    def booth_environment(self) -> bytes:
        """Environment document of the voting policies: the ballot
        contracts and the blacklist."""
        constants = {f"{step}Contract": f"{step}Contract" for step in STEPS}
        sets = {"blacklist": self.blacklist}
        return json.dumps({"constants": constants, "sets": sets}).encode("utf-8")

    # -- ground truth ----------------------------------------------------

    def voters(self) -> list[str]:
        return sorted({s.voter for s in self.sessions})

    def slice_records(self, voter: str) -> tuple[set[str], int]:
        """Vertex ids and edge count of ``voter``'s slice: every session of
        the voter that ran at least one step, plus the voter itself."""
        ids = {voter}
        edges = 0
        for s in self.sessions:
            if s.voter != voter or not s.steps:
                continue
            ids.add(s.machine)
            edges += 1 + 5 * s.steps
            for step in s.done:
                ids.update((s.activity(step), f"{step}Contract", s.output(step)))
        return ids, edges

    def expected(self, policy: str, owner: Owner | None = None,
                 voter: str | None = None) -> tuple[bool, dict | None, dict | None]:
        """(satisfied, witness, counterexample) of a corpus policy.

        ``owner`` re-aims an encapsulation policy; ``voter`` restricts a
        voting policy to that voter's slice. Witnesses and counterexamples
        are the lexicographically first qualifying assignment, as the
        evaluator enumerates ids in sorted order.
        """
        if policy in ENCAPSULATION_POLICIES:
            return self._expected_encapsulation(policy, owner)
        sessions = [s for s in self.sessions if voter in (None, s.voter)]
        if policy in STEP_POLICIES:
            step = STEP_POLICIES[policy]
            var = "k" if step == "KeyGen" else "d"
            found = sorted(
                (s.output(step), s.activity(step), s.voter)
                for s in sessions
                if step in s.done
            )
            if not found:
                return False, None, None
            d, a, v = found[0]
            return True, {var: d, "a": a, "v": v}, None
        if policy == "count_done":
            found = sorted(
                (s.output("Count"), s.activity("Count"), s.machine, s.voter)
                for s in sessions
                if "Count" in s.done
            )
            if not found:
                return False, None, None
            d, a, n, v = found[0]
            return True, {"d": d, "a": a, "n": n, "v": v}, None
        if policy == "blacklisted_actor":
            # An account qualifies when some node agent acts for it; in a
            # slice that needs a session with at least one step.
            if voter is None:
                acting = {s.voter for s in self.sessions} | {o.name for o in self.owners}
            else:
                acting = {s.voter for s in sessions if s.steps}
            flagged = sorted(acting & set(self.blacklist))
            if not flagged:
                return False, None, None
            return True, {"b": flagged[0]}, None
        raise ValueError(f"no ground truth for policy {policy!r}")

    def _expected_encapsulation(self, policy: str, o: Owner):
        by_name = {x.name: x for x in self.owners}
        foreign = by_name[o.foreign] if o.foreign else None
        used_keys = [o.enclave_key, o.key] + ([foreign.key] if foreign else [])
        used_data = [o.plaintext] + ([foreign.plaintext] if foreign else [])
        clean = foreign is None
        if policy == "p1":
            return True, {"k": min(used_keys)}, None
        if policy == "p2":
            return True, {"d": min(used_data)}, None
        if policy == "p3":
            return (True, None, None) if clean else (False, None, {"k": foreign.key})
        if policy == "p4":
            return (
                (True, None, None) if clean else (False, None, {"d": foreign.plaintext})
            )
        if policy == "p5":
            return True, {"d": o.plaintext}, None
        if policy == "p6":
            return True, {"k": min(o.enclave_key, o.key)}, None
        if policy in ("p7", "p8", "p9"):
            return True, None, None
        return clean, None, None  # encapsulate_all: a conjunction, no chain


# ---------------------------------------------------------------------------
# populations
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add(prefix + "".join(rng.choice(_LETTERS) for _ in range(5)))
    return sorted(names)


def build_history(rng: random.Random, voters: int, owners: int) -> History:
    """A history of ``voters`` voters and ``owners`` encapsulation owners.

    Half the voters completed the ballot, a quarter stopped part-way (the
    stopping points cycle through one to five steps), and a quarter came
    back for a second ballot on another booth after completing the first.
    A fifth of the voters are blacklisted. A third of the owners are
    tampered with. The seed chooses names, booths, which voter gets which
    case, the blacklist and the tampering; the case counts are fixed, so
    every seed gives a history of the same size.
    """
    history = History()
    names = _names(rng, "voter-", voters)
    cases = (
        ["completed"] * (voters - 2 * (voters // 4))
        + ["partial"] * (voters // 4)
        + ["returned"] * (voters // 4)
    )
    rng.shuffle(cases)
    partial = 0
    for voter, case in zip(names, cases):
        booths = rng.sample(range(1, 10), 2)
        first = f"{voter}/booth{booths[0]}"
        if case == "partial":
            history.add_session(Session(voter, first, 1 + partial % 5))
            partial += 1
            continue
        history.add_session(Session(voter, first, len(STEPS)))
        if case == "returned":
            history.add_session(Session(voter, f"{voter}/booth{booths[1]}", 1))
    owner_names = _names(rng, "owner-", owners)
    tampered = set(rng.sample(owner_names, owners // 3))
    for name in owner_names:
        foreign = None
        if name in tampered:
            foreign = rng.choice([n for n in owner_names if n != name])
        history.add_owner(Owner(name, foreign))
    history.link_foreign_inputs()
    history.blacklist = sorted(rng.sample(names, max(1, voters // 5)))
    return history


# ---------------------------------------------------------------------------
# injected faults
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fault:
    """An injected bad edge and what the program must report for it."""

    error: str  # exception class name raised by load_graph
    index: int  # record index of the edge load_graph rejects
    violation: tuple[str, str, str, str, str] | None  # typing report
    cycle: tuple[str, ...] | None  # cycle report of validate_acyclic


def inject_fault(rng: random.Random, history: History, kind: str) -> tuple[bytes, Fault]:
    """Document of ``history`` plus one bad edge of ``kind``.

    ``cycle`` makes a step's activity use the output it generated, a
    two-vertex cycle whose only other edge is the generation edge.
    ``typing`` attributes an activity to its voter, which the typing table
    forbids (attribution starts at an entity) and which closes no cycle.
    """
    session = rng.choice([s for s in history.sessions if s.steps])
    step = rng.choice(session.done)
    activity, output = session.activity(step), session.output(step)
    if kind == "cycle":
        bad = (activity, output, "Used")
        edges = sorted([*history.edges, bad])
        closing = max(edges.index(bad), edges.index((output, activity, "WasGeneratedBy")))
        fault = Fault("CycleIntroducedError", closing, None, tuple(sorted((activity, output))))
    else:
        bad = (activity, session.voter, "WasAttributedTo")
        edges = sorted([*history.edges, bad])
        violation = (activity, session.voter, "WasAttributedTo", "activity", "account_agent")
        fault = Fault("TypeViolationError", edges.index(bad), violation, None)
    return history.document(bad), fault
