"""Committed output digests: every output hashes as recorded.

A failure names the outputs of one context whose lines changed.  If
the change is intended, regenerate the digests with
``tests/digest_outputs.py`` and say in CHANGES.md which digests changed
and why.
"""

from __future__ import annotations

import json

import pytest

from contexts import context
from digest_outputs import CONTEXTS, DIGESTS, digests, label

RECORDED = json.loads(DIGESTS.read_text())


def test_every_context_is_recorded():
    assert sorted(RECORDED) == sorted(label(*ctx) for ctx in CONTEXTS)


@pytest.mark.parametrize("text,letters,kernel", CONTEXTS)
def test_outputs_match_recorded_digests(text, letters, kernel):
    got = digests(context(text, letters, kernel))
    want = RECORDED[label(text, letters, kernel)]
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(got) if got[name] != want[name]] == []
