"""Property-based MPI matching test: random interleavings of isend and
irecv (with wildcards) are verified against a reference matching model.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.physmem import PAGE_SIZE
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiWorld


def _reference_match(sends, recv):
    """First send (in order) matching the recv's criteria; returns its
    index or None.  Mirrors MPI's matching rule."""
    for i, (src, tag, _) in enumerate(sends):
        if (recv[0] in (ANY_SOURCE, src)
                and recv[1] in (ANY_TAG, tag)):
            return i
    return None


# One shared world: building clusters is costly; state is reset by
# using disjoint tags per example via the example counter.
_WORLD = None
_BUFS = None
_COUNTER = [0]


def get_world():
    global _WORLD, _BUFS
    if _WORLD is None:
        _WORLD = MpiWorld(3, num_frames=4096, seed=0)
        # zero-cost model keeps the property test fast
        _BUFS = []
        for r in _WORLD.ranks:
            va = r.task.mmap(64)
            r.task.touch_pages(va, 64)
            _BUFS.append(va)
    return _WORLD, _BUFS


@st.composite
def scenario(draw):
    """A batch of sends from ranks 0/2 to rank 1, plus recv criteria."""
    n_msgs = draw(st.integers(1, 6))
    sends = []
    for k in range(n_msgs):
        src = draw(st.sampled_from([0, 2]))
        tag = draw(st.integers(0, 3))
        size = draw(st.integers(1, 200))
        sends.append((src, tag, size))
    recvs = []
    for _ in range(n_msgs):
        src = draw(st.sampled_from([0, 2, ANY_SOURCE]))
        tag = draw(st.sampled_from([0, 1, 2, 3, ANY_TAG]))
        recvs.append((src, tag))
    return sends, recvs


@given(scenario())
@settings(max_examples=40, deadline=None)
def test_matching_agrees_with_reference(sc):
    sends, recvs = sc
    world, bufs = get_world()
    r1 = world.rank(1)
    assert len(r1._unexpected) == 0 and len(r1._posted) == 0

    base = _COUNTER[0] * 16
    _COUNTER[0] += 1
    tag_of = lambda t: base % (2**18) + t   # distinct tag space per run

    # Fire all sends first (they land in the unexpected queue).
    payloads = []
    for k, (src, tag, size) in enumerate(sends):
        data = bytes([k + 1]) * size
        world.rank(src).task.write(bufs[src], data)
        world.rank(src).isend(1, tag_of(tag), bufs[src], size)
        payloads.append(data)

    # Reference model over the same arrival order.
    model = [(src, tag, k) for k, (src, tag, _) in enumerate(sends)]

    matched_any = False
    for src, tag in recvs:
        expect = _reference_match(
            [(s, t, k) for s, t, k in model],
            (src, tag))
        if expect is None:
            continue   # would deadlock; reference says skip it too
        s, t, k = model.pop(expect)
        st_ = r1.recv(src, tag_of(t) if tag != ANY_TAG else ANY_TAG,
                      bufs[1], 64 * PAGE_SIZE)
        assert st_.source == s
        assert st_.nbytes == len(payloads[k])
        assert r1.task.read(bufs[1], st_.nbytes) == payloads[k]
        matched_any = True

    # Drain leftovers so the shared world stays clean.
    while len(r1._unexpected):
        r1.recv(ANY_SOURCE, ANY_TAG, bufs[1], 64 * PAGE_SIZE)
    assert len(r1._posted) == 0
