"""Class-group Sylow data against the plain subgroup walk.

quadform._sylow_structure returns a cyclic Sylow subgroup at once when the
first projected prime form has exact order q^e; every other subgroup is
grown by the walk.  Both routes must give what the walk alone gives.
"""

import collections
import random

import pytest

from iqgalois import quadform
from iqgalois.arith import factorize
from iqgalois.discriminant import validate
from iqgalois.survey import BLOCK_SIZE, class_numbers_range

from _oracles import sylow_structure_walk


def _fields():
    small = class_numbers_range(3, 20_000)
    block = class_numbers_range(10**6, 10**6 + BLOCK_SIZE)
    return small + random.Random(5).sample(block, 300)


@pytest.fixture
def routes(monkeypatch):
    """Count the Sylow subgroups that reach _adjoin (walk) and those that do not."""
    counts = collections.Counter()
    walked = []
    sylow, adjoin = quadform._sylow_structure, quadform._adjoin

    def counting_adjoin(*args):
        walked[-1] = True
        return adjoin(*args)

    def counting_sylow(*args):
        walked.append(False)
        out = sylow(*args)
        cyclic = "cyclic" if len(out[0]) == 1 else "noncyclic"
        counts["walk " + cyclic if walked.pop() else "shortcut"] += 1
        return out

    monkeypatch.setattr(quadform, "_adjoin", counting_adjoin)
    monkeypatch.setattr(quadform, "_sylow_structure", counting_sylow)
    return counts


def test_sylow_matches_walk(routes):
    for m, h in _fields():
        D = -m
        got = quadform.class_group(validate(D), known_h=h).sylow
        want = {
            q: sylow_structure_walk(D, h, q, e, quadform._prime_form_pool(D))
            for q, e in factorize(h)
        }
        assert got == want, (D, h)
    # the shortcut, the walk on a cyclic subgroup whose first projected prime
    # form does not generate it, and the walk on non-cyclic subgroups
    assert routes["shortcut"] and routes["walk cyclic"] and routes["walk noncyclic"], routes
