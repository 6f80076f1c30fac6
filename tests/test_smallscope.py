"""Every model of a small scope through ``reduce``, against the reference.

The scopes of ``smallscope.models``: (2, 3, 3), (3, 2, 2), and the models of
(3, 2, 3) with three interactions (those with fewer are in (3, 2, 2)) whose
three variation points are all roots. Skipping the path check of uniqueness
changes no output in the first two, since it needs an edge and a two-edge
detour; it changes 38 models of the third. For each model the test compares ``reduce``'s model
and trace bytes, and every root's ``interacting_pairs``, with
``reference_reduction``; replays the trace with ``verify_trace``; and checks
that ``reduce`` merges nothing in its own output. It pins today's census of
``reduction_checks.check_space_map``: models that merge, that lose the image
of a valid configuration and that gain one, and configurations lost and
gained. A change to what a merge does to the valid products shows here.
"""

from __future__ import annotations

import pytest

import reference_reduction
from reduction_checks import check_space_map
from smallscope import models
from ovmkit.documents import serialize
from ovmkit.model import roots
from ovmkit.reduction import interacting_pairs, reduce, verify_trace


def _every(parents, links) -> bool:
    return True


def _all_roots_three_links(parents, links) -> bool:
    """The models of (3, 2, 3) that are not in (3, 2, 2), all roots."""
    return parents.count(None) == len(parents) and len(links) == 3


@pytest.mark.parametrize("scope,keep,census", [
    # (models, merging, losing, gaining, configurations lost, gained)
    ((2, 3, 3), _every, (6659, 1579, 0, 1078, 0, 1608)),
    ((3, 2, 2), _every, (10898, 5528, 896, 3640, 1024, 4858)),
    ((3, 2, 3), _all_roots_three_links, (4084, 2948, 0, 2304, 0, 3960)),
], ids=["2-3-3", "3-2-2", "3-2-3-roots-3-links"])
def test_every_model_reduces_as_the_reference_does(scope, keep, census):
    mismatches, counts = [], [0] * 6
    for widths, parents, links, plm in models(*scope):
        if not keep(parents, links):
            continue
        model = widths, parents, links
        reduced, trace = reduce(plm)
        expected = reference_reduction.reduce(plm)
        if (serialize(reduced), serialize(trace)) != tuple(map(serialize, expected)):
            mismatches.append((model, "reduce"))
        mismatches += [(model, root.id) for root in roots(plm.vm)
                       if interacting_pairs(plm.vm, root.id)
                       != reference_reduction.interacting_pairs(plm.vm, root.id)]
        verify_trace(plm, trace, reduced)
        # A model reduce leaves alone is its own output, and maps every
        # configuration to itself.
        if trace.merges and reduce(reduced)[1].merges:
            mismatches.append((model, "merges its own output"))
        lost, gained = check_space_map(plm) if trace.merges else ([], [])
        for i, n in enumerate((1, bool(trace.merges), bool(lost), bool(gained),
                               len(lost), len(gained))):
            counts[i] += n
    assert mismatches == []
    assert tuple(counts) == census


def test_the_smallest_witness_loses_an_image():
    """Roots ``v0 = {v0.0}`` and ``v1 = {v1.0, v1.1}``, ``v2 = {v2.0}`` under
    ``v1.0``, and ``v0.0 -> v2.0``: ``reduce`` merges ``v0`` into ``v2``, and
    the image of ``{v0.0, v1.1}`` selects a variant of the inactive ``v2``.
    ``{v1.1}``, which left ``v0`` without a choice, becomes valid."""
    plm = next(plm for widths, parents, links, plm in models(3, 2, 1)
               if (widths, parents, links) == ((1, 2, 1), (None, None, "v1.0"),
                                                (("v0.0", "v2.0"),)))
    _, trace = reduce(plm)
    assert [(m.source_vp_id, m.target_vp_id) for m in trace.merges] == [("v2", "v0")]
    assert check_space_map(plm) == ([("v0.0", "v1.1")], [("v1.1",)])
