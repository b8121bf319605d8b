"""Seeded instance generators and the benchmark's set-up step.

Every instance goes through the same pipeline a user's file would: it is
generated, serialized with ``hsdiag.dumps``, parsed back with
``hsdiag.loads``, given its probabilities and, for sessions, a designated
actual diagnosis. All randomness comes from one ``random.Random`` seeded by
the workload seed, so the same seed gives the same instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import hsdiag
from hsdiag.dpi import antichain_reduce

PROB = "prob"
CARD = "card"


@dataclass(frozen=True)
class Instance:
    dpi: hsdiag.Dpi
    pr: hsdiag.FaultProbabilities
    mode: str
    actual: hsdiag.Diagnosis | None = None  # designated for sessions only


def abstract_dpi(rng: random.Random, components: int, conflicts: int, sizes: tuple[int, int]):
    """Random abstract DPI whose conflicts have between sizes[0] and sizes[1]
    members. A lower bound above 1 keeps single-element conflicts, which make
    an instance trivial, out of the family and the per-instance cost spread
    narrow."""
    ids = [str(i + 1) for i in range(components)]
    raw = []
    for _ in range(conflicts):
        members = sorted(rng.sample(range(components), rng.randint(*sizes)))
        raw.append([ids[i] for i in members])
    return hsdiag.Dpi.abstract(ids, antichain_reduce(raw))


# Gate name -> (Python function, formula template).
_GATES = {
    "and": (lambda a, b: a and b, "{a} & {b}"),
    "or": (lambda a, b: a or b, "{a} | {b}"),
    "xor": (lambda a, b: a != b, "!({a} <-> {b})"),
}


def adder_gates(bits: int) -> tuple[list[tuple[str, str, str, str]], list[str], list[str]]:
    """Ripple-carry adder: five gates per bit as (output wire, gate, in1, in2),
    plus the input and output wire names."""
    gates = []
    carry = "cin"
    for i in range(bits):
        a, b = f"a{i}", f"b{i}"
        gates += [
            (f"h{i}", "xor", a, b),
            (f"s{i}", "xor", f"h{i}", carry),
            (f"p{i}", "and", a, b),
            (f"q{i}", "and", f"h{i}", carry),
            (f"c{i}", "or", f"p{i}", f"q{i}"),
        ]
        carry = f"c{i}"
    inputs = ["cin"] + [f"{x}{i}" for i in range(bits) for x in "ab"]
    outputs = [f"s{i}" for i in range(bits)] + [carry]
    return gates, inputs, outputs


def _simulate(gates, inputs: dict[str, bool], faulty: set[int]) -> dict[str, bool]:
    values = dict(inputs)
    for i, (out, gate, a, b) in enumerate(gates):
        correct = _GATES[gate][0](values[a], values[b])
        values[out] = correct != (i in faulty)  # a faulty gate inverts its output
    return values


def circuit_dpi(rng: random.Random, bits: int, faults: int, pr_range: tuple[float, float]):
    """Adder DPI with injected gate faults, as DPI text with a [PR] section.

    K holds one behaviour axiom per gate, P the input values and the observed
    (faulty) output values. Inputs and fault sites are redrawn until some
    output differs from the fault-free prediction, so every instance has a
    conflict.
    """
    gates, input_names, outputs = adder_gates(bits)
    while True:
        inputs = {name: rng.random() < 0.5 for name in input_names}
        faulty = set(rng.sample(range(len(gates)), faults))
        expected = _simulate(gates, inputs, set())
        observed = _simulate(gates, inputs, faulty)
        if any(expected[o] != observed[o] for o in outputs):
            break
    k = [
        (f"g{i}", hsdiag.parse_formula(f"{out} <-> ({_GATES[gate][1].format(a=a, b=b)})"))
        for i, (out, gate, a, b) in enumerate(gates)
    ]
    literals = [(name, inputs[name]) for name in input_names]
    literals += [(name, observed[name]) for name in outputs]
    positive = [hsdiag.parse_formula(name if value else f"!{name}") for name, value in literals]
    dpi = hsdiag.Dpi.propositional(k, positive=positive)
    pr = hsdiag.FaultProbabilities({a: rng.uniform(*pr_range) for a in dpi.k_ids})
    return hsdiag.dumps(dpi, pr)


def _abstract_text(rng: random.Random, spec) -> str:
    dpi = abstract_dpi(rng, spec.components, spec.conflicts, spec.sizes)
    if spec.mode == CARD:
        return hsdiag.dumps(dpi)
    pr = hsdiag.FaultProbabilities({a: rng.uniform(*spec.pr_range) for a in dpi.k_ids})
    return hsdiag.dumps(dpi, pr)


def generate(spec, seed: int):
    """Generate, serialize, parse and prepare ``spec.pool`` instances, one
    at a time.

    Propositional instances get a designated actual diagnosis drawn from an
    HS-Tree result list, never from the brute-force oracles.
    """
    rng = random.Random(seed)
    for _ in range(spec.pool):
        if spec.kind == "circuit":
            text = circuit_dpi(rng, spec.bits, spec.faults, spec.pr_range)
        else:
            text = _abstract_text(rng, spec)
        dpi, file_pr = hsdiag.loads(text)
        if spec.mode == CARD:
            pr = hsdiag.cardinality_pr(dpi.k_ids)
        else:
            pr = file_pr.as_cost_adjusted()  # generated values all lie below 0.5
        actual = None
        if spec.kind == "circuit":
            actual = rng.choice(hsdiag.hs_tree(dpi, pr, spec.ld).diagnoses)
        yield Instance(dpi, pr, spec.mode, actual)
