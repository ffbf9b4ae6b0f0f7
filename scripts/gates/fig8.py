"""Gate for the fig8 smoke: the telemetry path end to end -- the bench
ran the section under a timed span and wrote a well-formed document --
and a relative allocation bound on OVOC placement.

OVOC prices a server's uplink for every VM count it tries while packing
a cluster.  When that pricing boxed floats and mutated and rolled back
the state per try, OVOC allocated ~14x CloudMirror's minor words per
placement; with the allocation-free pricing kernel and the pure
server-fit probe it is ~2x.  Minor words are counted, not timed, so the
bound holds on any host."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: Ceiling on OVOC's minor words per placement, as a multiple of CM's.
MAX_OVOC_WORDS_PER_CM = 4.0


def words_per_call(spans, name):
    span = spans[name]
    assert span["count"] > 0, name
    return span["gc"]["minor_words"] / span["count"]


def check(doc):
    spans = doc["spans"]
    assert "section.fig8" in spans, sorted(spans)
    ovoc = words_per_call(spans, "place.OVOC")
    cm = words_per_call(spans, "place.CM")
    ratio = ovoc / cm
    print(
        "place.OVOC %.0f minor words/call, place.CM %.0f: %.2fx (max %.1fx)"
        % (ovoc, cm, ratio, MAX_OVOC_WORDS_PER_CM)
    )
    assert ratio <= MAX_OVOC_WORDS_PER_CM, ratio


common.main(check)
