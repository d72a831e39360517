"""Grade-Cast: the Feldman-Micali graded broadcast of Fig. 5."""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.faults import FaultPlane
from repro.net.metrics import payload_field_elements
from repro.net.simulator import Send, SynchronousNetwork, multicast
from repro.protocols.common import filter_tag, is_hashable
from repro.protocols.gradecast import parallel_gradecast

N, T = 7, 2


def run_gradecast(values, faulty=None, n=N, t=T):
    net = SynchronousNetwork(n, allow_broadcast=False)
    programs = {}
    faulty = faulty or {}
    for pid in range(1, n + 1):
        if pid in faulty:
            if faulty[pid] is not None:
                programs[pid] = faulty[pid]
            continue
        programs[pid] = parallel_gradecast(n, t, pid, values[pid])
    honest = [pid for pid in programs if pid not in faulty]
    out = net.run(programs, wait_for=honest)
    return {pid: out[pid] for pid in honest}, net.metrics


class TestHonestSenders:
    def test_everyone_grade_2(self):
        values = {pid: ("v", pid * 10) for pid in range(1, N + 1)}
        results, _ = run_gradecast(values)
        for pid, graded in results.items():
            for sender in range(1, N + 1):
                assert graded[sender] == (("v", sender * 10), 2)

    def test_three_rounds(self):
        values = {pid: pid for pid in range(1, N + 1)}
        _, metrics = run_gradecast(values)
        assert metrics.rounds <= 4  # 3 protocol rounds + final drain


class TestFaultySenders:
    def _equivocating_sender(self, me, n):
        """Sends a different value to each player in round 1, then follows
        the protocol honestly for the echo rounds."""
        def program():
            inbox = yield [
                Send(dst, ("gc/v", ("evil", dst))) for dst in range(1, n + 1)
            ]
            # echo honestly
            from repro.protocols.common import filter_tag, is_hashable

            first = {
                src: val
                for src, val in filter_tag(inbox, "gc/v").items()
                if is_hashable(val)
            }
            inbox = yield [multicast(("gc/echo", tuple(sorted(first.items()))))]
            yield []
            return None

        return program()

    def test_equivocator_gets_low_grade(self):
        values = {pid: ("v", pid) for pid in range(1, N + 1)}
        faulty = {4: self._equivocating_sender(4, N)}
        results, _ = run_gradecast(values, faulty=faulty)
        for graded in results.values():
            value, conf = graded[4]
            assert conf < 2  # no honest player fully trusts instance 4

    def test_silent_sender_grade_0(self):
        from repro.net.adversary import silent_program

        values = {pid: ("v", pid) for pid in range(1, N + 1)}
        results, _ = run_gradecast(values, faulty={3: silent_program()})
        for graded in results.values():
            assert graded[3] == (None, 0)
        # other instances unaffected
        for graded in results.values():
            assert graded[1] == (("v", 1), 2)

    def test_grade2_implies_common_value_grade1(self):
        """The gradecast soundness property, under a randomized adversary:
        whenever any honest player outputs grade 2 for a sender, every
        honest player holds the same value with grade >= 1."""
        rng = random.Random(0)

        def chaotic(me, n):
            def program():
                for _ in range(3):
                    sends = []
                    for dst in range(1, n + 1):
                        tag = rng.choice(["gc/v", "gc/echo", "gc/echo2"])
                        sends.append(Send(dst, (tag, rng.randrange(100))))
                    yield sends
            return program()

        for trial in range(10):
            values = {pid: ("v", pid) for pid in range(1, N + 1)}
            faulty = {2: chaotic(2, N), 6: chaotic(6, N)}
            results, _ = run_gradecast(values, faulty=faulty)
            for sender in range(1, N + 1):
                grade2_values = {
                    graded[sender][0]
                    for graded in results.values()
                    if graded[sender][1] == 2
                }
                if grade2_values:
                    assert len(grade2_values) == 1
                    common = grade2_values.pop()
                    for graded in results.values():
                        value, conf = graded[sender]
                        assert conf >= 1
                        assert value == common


class TestValidation:
    def test_unhashable_values_ignored(self):
        """A sender proposing an unhashable value is treated as silent."""
        def bad_sender(n):
            yield [multicast(("gc/v", ["un", "hashable"]))]
            yield []
            yield []

        values = {pid: ("v", pid) for pid in range(1, N + 1)}
        results, _ = run_gradecast(values, faulty={5: bad_sender(N)})
        for graded in results.values():
            assert graded[5] == (None, 0)

    def test_malformed_echoes_ignored(self):
        def bad_echoer(n):
            yield [multicast(("gc/v", "mine"))]
            # echo body is not a tuple of pairs
            yield [multicast(("gc/echo", "garbage"))]
            yield [multicast(("gc/echo2", ((1, "x", "y"),)))]

        values = {pid: ("v", pid) for pid in range(1, N + 1)}
        results, _ = run_gradecast(values, faulty={2: bad_echoer(N)})
        for graded in results.values():
            assert graded[1] == (("v", 1), 2)


# -- counting by object equals counting every copy ---------------------------

def _parse_echo(body, n):
    """Validate an echo body: a tuple of (sender_id, hashable_value) pairs,
    at most one entry per sender — per copy, as grade-cast once did."""
    if not isinstance(body, tuple):
        return
    seen = set()
    for item in body:
        if (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], int)
            and not isinstance(item[0], bool)
            and 1 <= item[0] <= n
            and item[0] not in seen
            and is_hashable(item[1])
        ):
            seen.add(item[0])
            yield item[0], item[1]


def _per_copy_counts(echoes, n):
    counts = {}
    for body in echoes.values():
        for sender, value in _parse_echo(body, n):
            per = counts.setdefault(sender, {})
            per[value] = per.get(value, 0) + 1
    return counts


def reference_gradecast(n, t, me, my_value, tag="gc"):
    """Grade-cast with every echoed copy hashed and counted by value —
    the reference the object-counting program must equal."""
    inbox = yield [multicast((tag + "/v", my_value))]
    first = {
        src: val
        for src, val in filter_tag(inbox, tag + "/v").items()
        if is_hashable(val)
    }
    inbox = yield [multicast((tag + "/echo", tuple(sorted(first.items()))))]
    counts = _per_copy_counts(filter_tag(inbox, tag + "/echo"), n)
    supported = tuple(sorted(
        (sender, value)
        for sender, per in counts.items()
        for value, count in per.items()
        if count >= n - t
    ))
    inbox = yield [multicast((tag + "/echo2", supported))]
    counts2 = _per_copy_counts(filter_tag(inbox, tag + "/echo2"), n)
    result = {}
    for sender in range(1, n + 1):
        graded = (None, 0)
        for value, count in counts2.get(sender, {}).items():
            if count >= n - t:
                graded = (value, 2)
                break
            if count >= t + 1 and graded[1] == 0:
                graded = (value, 1)
        result[sender] = graded
    return result


def _drive(program, inboxes):
    """Feed a grade-cast program its three inboxes; (sends, output)."""
    sends = [next(program)]
    for inbox in inboxes[:-1]:
        sends.append(program.send(inbox))
    with pytest.raises(StopIteration) as stop:
        program.send(inboxes[-1])
    return sends, stop.value.value


def _value_pool():
    """Votes as objects: shared ones, equal-but-distinct copies (built
    twice), ``1`` beside the equal ``True``, and unhashable values."""
    def prop(tail):
        return ("prop", (1, 2, 3), tuple((j, (j * 7, tail)) for j in (1, 2)))

    return [
        prop(5), prop(5), prop(6), prop(6), 1, True, ("v", 1), tuple(["v", 1]),
        ["list", 1], {"dict": 1}, (1, [2]), "plain",
    ]


SENDER_IDS = [True, 0, N + 1] + list(range(1, N + 1))

entries = st.one_of(
    # a well-formed entry, most of the time
    st.tuples(st.sampled_from(SENDER_IDS), st.integers(0, 11)).map(
        lambda e: ("pair", e)
    ),
    st.sampled_from([("bad", "junk"), ("bad", "triple"), ("bad", "list")]),
)


@st.composite
def echo_inboxes(draw):
    """Echo inboxes whose bodies share entries, so counts reach both
    thresholds, with every malformed shape mixed in."""
    pool = _value_pool()
    shared = draw(st.lists(entries, min_size=1, max_size=8))

    def entry(spec):
        kind, what = spec
        if kind == "pair":
            return (what[0], pool[what[1]])
        if what == "junk":
            return "junk"
        if what == "triple":
            return (1, pool[0], "extra")
        return [1, pool[0]]

    inbox = {}
    for src in range(1, N + 1):
        shape = draw(st.sampled_from(["tuple"] * 6 + ["list", "str", "none"]))
        keep = draw(st.lists(st.booleans(), min_size=len(shared),
                             max_size=len(shared)))
        extra = draw(st.lists(entries, max_size=3))
        body = [entry(e) for e, k in zip(shared, keep) if k]
        body += [entry(e) for e in extra]
        body = draw(st.permutations(body)) if draw(st.booleans()) else body
        if shape == "tuple":
            inbox[src] = tuple(body)
        elif shape == "list":
            inbox[src] = body
        elif shape == "str":
            inbox[src] = "garbage"
        else:
            inbox[src] = None
    return inbox


@given(
    first=st.lists(st.integers(0, 11), min_size=N, max_size=N),
    echo=echo_inboxes(),
    echo2=echo_inboxes(),
)
@settings(max_examples=150, deadline=None)
def test_object_counting_is_per_copy_counting(first, echo, echo2):
    """Every send and every sender's (value, grade) — by ``repr``, so a
    ``1`` graded where the reference grades ``True`` fails — equal the
    per-copy reference on inboxes mixing shared objects, equal copies,
    unhashable values, duplicate and out-of-range senders and non-tuple
    bodies."""
    pool = _value_pool()
    inboxes = [
        {src: [("gc/v", pool[idx])] for src, idx in enumerate(first, 1)},
        {src: [("gc/echo", body)] for src, body in echo.items()},
        {src: [("gc/echo2", body)] for src, body in echo2.items()},
    ]
    got = _drive(parallel_gradecast(N, T, 1, ("prop", 1)), inboxes)
    want = _drive(reference_gradecast(N, T, 1, ("prop", 1)), inboxes)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("order", ["x_first", "y_first"])
def test_grade_one_goes_to_the_first_value_seen(order):
    """Two values for one sender, each re-echoed by t+1 players (one of
    them as three equal-but-distinct copies): grade 1 goes to whichever
    occurs first, exactly as the per-copy count orders it."""
    x, y = ("x", (1, 2)), ("y", (3, 4))
    copies = [tuple(["y", (3, 4)]) for _ in range(T + 1)]  # equal, distinct
    bodies = [((1, x),)] * (T + 1) + [((1, c),) for c in copies]
    if order == "y_first":
        bodies.reverse()
    inboxes = [
        {},
        {},
        {src: [("gc/echo2", body)] for src, body in enumerate(bodies, 1)},
    ]
    got = _drive(parallel_gradecast(N, T, 1, "mine"), inboxes)
    want = _drive(reference_gradecast(N, T, 1, "mine"), inboxes)
    assert got == want
    assert got[1][1] == ((x if order == "x_first" else y), 1)


# -- echoes by reference --------------------------------------------------------
#
# ``reference_gradecast`` above echoes every value it holds in full: it is
# grade-cast as it was before honest echoes began naming a value equal to
# the echoer's own proposal by sender id, and serves as the oracle.

#: proposals drawn from a small pool, so that honest values coincide
PROPOSALS = [("prop", (1, 2), ((1, (5, 6)),)), ("prop", (1, 3), ((3, (7,)),)),
             ("v", 1), ("v", 2)]


def run_programs(n, t, honest_program, values, faulty, faults=None):
    """Run grade-cast with ``honest_program`` at every non-faulty pid;
    ``faulty[pid]`` is a program factory, or None for a silent player.
    Returns the honest outputs and the network's metrics."""
    net = SynchronousNetwork(n, allow_broadcast=False, faults=faults)
    programs = {
        pid: faulty[pid]() if pid in faulty else
        honest_program(n, t, pid, values[pid])
        for pid in range(1, n + 1)
        if not (pid in faulty and faulty[pid] is None)
    }
    honest = [pid for pid in range(1, n + 1) if pid not in faulty]
    out = net.run(programs, wait_for=honest)
    return {pid: out[pid] for pid in honest}, net.metrics


def liar(n, rounds):
    """A faulty program sending ``rounds[r][dst]`` to each dst in round r,
    whatever it hears."""
    def program():
        for tag, per_dst in zip(("gc/v", "gc/echo", "gc/echo2"), rounds):
            yield [Send(dst, (tag, per_dst[dst])) for dst in range(1, n + 1)]
    return program


def entry_shapes(n):
    """Every echo-entry shape a faulty echoer can send: references,
    explicit values, ``()``, 3-tuples, ``(True,)`` and out-of-range or
    non-int senders."""
    sender = st.sampled_from(list(range(1, n + 1)) + [0, n + 1, -1, True])
    value = st.sampled_from(PROPOSALS + [["un", "hashable"]])
    return st.one_of(
        st.tuples(sender),
        st.tuples(sender, value),
        st.just(()),
        st.tuples(sender, value, value),
        st.just((True,)),
        st.just("junk"),
    )


@st.composite
def gradecast_runs(draw, shapes=((4, 1), (7, 2), (13, 2)), liars=True):
    """(n, t, honest values, faulty programs): pooled proposals, and up to
    t faulty players, silent or lying per destination in every round."""
    n, t = draw(st.sampled_from(shapes))
    values = {pid: draw(st.sampled_from(PROPOSALS)) for pid in range(1, n + 1)}
    bad = draw(st.lists(st.integers(1, n), max_size=t, unique=True))
    faulty = {}
    for pid in bad:
        if not liars or draw(st.booleans()):
            faulty[pid] = None
            continue
        first = {dst: draw(st.sampled_from(PROPOSALS)) for dst in range(1, n + 1)}
        echoes = [
            {dst: tuple(draw(st.lists(entry_shapes(n), max_size=n + 2)))
             for dst in range(1, n + 1)}
            for _ in range(2)
        ]
        faulty[pid] = liar(n, [first] + echoes)
    return n, t, values, faulty


@given(gradecast_runs())
@settings(max_examples=60, deadline=None)
def test_honest_outputs_equal_the_value_echo_oracle(run):
    """Whatever t faulty players send, every honest player's output is the
    one value-echo grade-cast gives it."""
    n, t, values, faulty = run
    got, _ = run_programs(n, t, parallel_gradecast, values, faulty)
    want, _ = run_programs(n, t, reference_gradecast, values, faulty)
    assert got == want


@given(gradecast_runs(shapes=((7, 2),)))
@settings(max_examples=60, deadline=None)
def test_faulty_echo_shapes_cannot_break_either_property(run):
    """Honest senders are graded (value, 2) by every honest player, and a
    grade 2 anywhere means every honest player holds that value at grade
    >= 1."""
    n, t, values, faulty = run
    results, _ = run_programs(n, t, parallel_gradecast, values, faulty)
    for sender in range(1, n + 1):
        views = [graded[sender] for graded in results.values()]
        if sender not in faulty:
            assert views == [(values[sender], 2)] * len(views)
        sure = {value for value, grade in views if grade == 2}
        if sure:
            (value,) = sure
            assert all(v == value and g >= 1 for v, g in views)


def test_a_repeated_reference_counts_once():
    """Echoers 6 and 7 name sender 2 three times each: two echoes, short
    of n - t, exactly as three explicit copies count in the oracle."""
    x = ("x", 2)
    first = {src: [("gc/v", "mine" if src == 1 else x)] for src in range(1, N + 1)}
    named = {src: [("gc/echo", ((2,),) * 3)] for src in (6, 7)}
    spelled = {src: [("gc/echo", ((2, x),) * 3)] for src in (6, 7)}
    got = _drive(parallel_gradecast(N, T, 1, "mine"), [first, named, {}])
    want = _drive(reference_gradecast(N, T, 1, "mine"), [first, spelled, {}])
    assert got[1] == want[1]  # the outputs
    assert got[0][2] == want[0][2] == [multicast(("gc/echo2", ()))]


def test_a_reference_whose_round_one_message_was_dropped_is_ignored():
    """Player 2's proposal never reaches player 1, so 2's references do
    not resolve there: with 6 and 7 silent, player 1 counts four echoes
    per sender, below n - t = 5, and re-echoes nothing, which leaves
    four re-echoes everywhere.  Value echoes would have counted 2's
    fifth.  Counting 2 and its faulty link, three players are faulty
    here, one more than t."""
    values = {pid: ("v", 0) for pid in range(1, N + 1)}
    silent = {6: None, 7: None}
    sent = []

    def watched(n, t, me, my_value):
        program = parallel_gradecast(n, t, me, my_value)
        if me != 1:
            return program

        def spy():
            inbox = None
            try:
                while True:
                    sends = program.send(inbox)
                    sent.append(sends)
                    inbox = yield sends
            except StopIteration as stop:
                return stop.value
        return spy()

    plane = FaultPlane().drop(src=2, dst=1, rounds=[1])
    results, _ = run_programs(N, T, watched, values, silent, faults=plane)
    echo2 = sent[2][0].payload
    assert echo2 == ("gc/echo2", ())
    for sender in (1, 3, 4, 5):  # 2's proposal has four echoes anyway
        assert all(graded[sender] == (("v", 0), 1)
                   for graded in results.values())

    want, _ = run_programs(N, T, reference_gradecast, values, silent,
                           faults=FaultPlane().drop(src=2, dst=1, rounds=[1]))
    assert want[1][1] == (("v", 0), 2)


def test_equal_proposals_echo_n_ids_a_message():
    """All proposals equal at n = 7: the round-1 multicasts carry the
    proposal, and every echo and re-echo carries exactly n elements,
    one sender id per instance."""
    value = ("prop", 11, 12, 13)  # three field elements
    values = {pid: value for pid in range(1, N + 1)}
    results, metrics = run_programs(N, T, parallel_gradecast, values, {})
    assert all(graded[s] == (value, 2)
               for graded in results.values() for s in range(1, N + 1))
    assert metrics.unicast_messages == 3 * N * N
    assert metrics.bits == N * N * 3 + 2 * N * N * N
    inboxes = [{src: [("gc/v", value)] for src in range(1, N + 1)}]
    program = parallel_gradecast(N, T, 1, value)
    next(program)
    (echo,) = program.send(inboxes[0])
    assert echo.payload == ("gc/echo", tuple((s,) for s in range(1, N + 1)))
    assert payload_field_elements(echo.payload) == N


# -- a value nested too deep to hash ------------------------------------------

DEPTH_BOMB = """
from repro.net.simulator import multicast
from repro.protocols.broadcast import reliable_broadcast_program
from repro.protocols.context import ProtocolContext
from repro.protocols.gradecast import parallel_gradecast

deep = ()
for _ in range(200_000):
    deep = (deep,)


def gradecast_liar():
    yield [multicast(("gc/v", deep))]
    yield [multicast(("gc/echo", ((7, deep),)))]
    yield [multicast(("gc/echo2", ((7, deep),)))]


out, _ = ProtocolContext(None, 7, 1).run(
    lambda pid: parallel_gradecast(7, 1, pid, ("prop", pid), "gc"),
    faulty={7: gradecast_liar()},
)
for graded in (out[pid] for pid in range(1, 7)):
    assert graded[7] == (None, 0), graded[7]
    for sender in range(1, 7):
        assert graded[sender] == (("prop", sender), 2), graded[sender]
print("gradecast-ok")


def echo_liar():
    yield [multicast(("rbc/echo", deep)), multicast(("rbc/ready", deep))]


out, _ = ProtocolContext(None, 7, 2).run(
    lambda pid: reliable_broadcast_program(
        7, 2, pid, 1, ("value", 1) if pid == 1 else None
    ),
    faulty={4: echo_liar()},
)
assert {out[pid] for pid in (1, 2, 3, 5, 6, 7)} == {("value", 1)}, out
print("bracha-ok")
"""


def test_a_value_nested_too_deep_is_not_a_vote():
    """A faulty player's value nested 200,000 deep: ``hash`` would recurse
    in C past the stack and kill the interpreter (SIGSEGV), so it runs
    in a subprocess.  Grade-cast grades the liar ``(None, 0)`` and every
    honest sender ``(proposal, 2)``; Bracha reliable broadcast, whose
    ``plurality`` counts the liar's echo and ready, still delivers the
    honest sender's value everywhere."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(DEPTH_BOMB)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert proc.stdout.split() == ["gradecast-ok", "bracha-ok"]


def test_vote_depth_bound_is_exact():
    from repro.protocols.common import MAX_VOTE_DEPTH

    value = 1
    for _ in range(MAX_VOTE_DEPTH):
        value = (value,)
    assert is_hashable(value)
    assert not is_hashable((value,))
    assert not is_hashable(([],))
    assert is_hashable("flat") and is_hashable(())
