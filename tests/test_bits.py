"""Bit pins of the two in-process paths and of the generator they start from.

Each test hashes every float (as ``float.hex``) and verdict of a fixed
seeded batch. The digests were recorded before the Hermitian-part split,
the one-draw Box-Muller and the trimmed survey, which left every bit as it
was; any change that moves a single bit fails here.
"""

import hashlib
import math

import pytest

from test_acceptance import DETECTORS, GENERIC_BASES, TRIPARTITE_BASE, seeded_product_ensemble

from cohdet.criteria import ppt_check, qubit_coherence_check
from cohdet.states import random_density
from cohdet.tripartite import all_bipartitions_check


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode() if isinstance(item, str) else item)
        h.update(b"|")
    return h.hexdigest()


def report_items(report):
    for value in (report.lhs, report.rhs, report.margin, report.tolerance):
        yield float(value).hex()
    yield report.verdict.value


def test_survey_bits_of_the_criterion_07_ensembles():
    def items():
        for i in range(300):
            survey = all_bipartitions_check(seeded_product_ensemble(TRIPARTITE_BASE + i, (i % 3) + 1))
            for report in survey.reports:
                yield report.singled_out
                yield from report_items(report)
                for term in report.terms:
                    yield from (float(v).hex() for v in vars(term).values())
            yield repr(survey.skipped)

    assert digest(items()) == "4645d5a22657d14796ea99388a4df18b75e8e9d4bf84cd47db5aecd68d3b501c"


@pytest.mark.parametrize("d, want", [
    pytest.param(2, "21d216ab4f472045396abbd7a4efcd384035f1946eb31cc21f709b4aaaa5a620", id="2x2"),
    pytest.param(3, "2cf62d8181b4212a48b23a115b5014cdcdc166b6c94a8de16796c2d3f5b1d598", id="2x3"),
])
def test_check_bits_of_the_criterion_06_states(d, want):
    checks = dict(DETECTORS, **({"qubit-coherence": qubit_coherence_check} if d == 2 else {}))

    def items():
        base = GENERIC_BASES[d]
        for i in range(200):
            state = random_density((2, d), rank=(i % (2 * d)) + 1, seed=base + i)
            for name, check in checks.items():
                report = check(state)
                yield name
                yield from report_items(report)
                yield repr(report.notes)
            ppt = ppt_check(state)
            yield float(ppt.min_eigenvalue).hex()
            yield str(ppt.is_ppt)

    assert digest(items()) == want


@pytest.mark.parametrize("dims, want", [
    pytest.param(2, "6671083c2c12d5753a828840c755e1088c1bc4e268dd5ab54bd666a5435763db", id="2"),
    pytest.param((2, 2), "2cddcd04b9ccee73d71d5854a9aa03f63c747f9e38934ceb71bbf06a9b394b38", id="2x2"),
    pytest.param((2, 3), "061c1bf8ae13d8741ddfe24d3bef9695b804a6418662e3dff893e0a8fed5891b", id="2x3"),
    pytest.param((2, 2, 2), "eae78541f67e5e98358adc7aabf18b790b73b34d4ce68c7825074219665c6704", id="2x2x2"),
])
def test_random_density_bytes(dims, want):
    total = math.prod(dims) if isinstance(dims, tuple) else dims
    states = (
        random_density(dims, rank=rank, seed=seed).matrix.tobytes()
        for rank in range(1, total + 1)
        for seed in range(200)
    )
    assert digest(states) == want
