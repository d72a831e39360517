"""Field membership is exact on type: only an ``int`` is an element.

On commit 9560a33 ``valid_element(GF2k(32), 5.5)`` was True — the
concrete fields fell back to ``0 <= to_int(a) < order``, which anything
orderable satisfies — so one faulty sender's float share reached the
decoders and raised ``TypeError`` inside every honest player (pure
kernels) or was silently truncated to 5 (numpy kernels).  Each test here
fails on that commit — the protocol ones for the sender positions that
land inside a decoder's optimistic head (from player 3 or 7 the float
was only ever compared, never multiplied, which is why nothing had seen
it).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.fields import GF2k
from repro.fields.backends import available_backends, numpy_available
from repro.fields.extension import SpecialField
from repro.fields.gfp import GFp
from repro.net.simulator import Send, multicast
from repro.protocols.coin_expose import coin_expose, make_dealer_coin
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.common import valid_element, valid_element_tuple
from repro.protocols.context import ProtocolContext


class SubInt(int):
    """In range, compares equal to an element, is not one."""


def impostors(value: int) -> list:
    """Objects that equal the element ``value`` without being an ``int``."""
    found = [float(value), value + 0.5, Fraction(value), SubInt(value), True]
    if numpy_available():
        import numpy

        found += [numpy.uint64(value), numpy.int64(value), numpy.float64(value)]
    return found


INT_FIELDS = {"gf2k32": GF2k(32), "gf2k16": GF2k(16), "gfp97": GFp(97)}
int_fields = pytest.mark.parametrize(
    "field", INT_FIELDS.values(), ids=INT_FIELDS.keys()
)


@int_fields
def test_only_an_exact_int_in_range_is_an_element(field):
    assert valid_element(field, 5) and valid_element(field, field.order - 1)
    assert valid_element(field, 0)
    for junk in impostors(5) + impostors(1) + [-1, field.order, None, "5", (5,)]:
        assert not valid_element(field, junk), repr(junk)
        assert junk not in field
        assert not valid_element_tuple(field, (5, junk, 6), 3), repr(junk)
    assert valid_element_tuple(field, (5, 0, field.order - 1), 3)
    assert valid_element_tuple(field, (), 0)
    assert not valid_element_tuple(field, [5, 6], 2)  # a list is no tuple
    assert not valid_element_tuple(field, (5, 6), 3)


def test_special_field_checks_its_digit_tuple_the_same_way():
    field = SpecialField(11, 3)
    assert (3, 0, 10) in field and field.zero in field and field.one in field
    assert field.contains_all([(3, 0, 10), field.one])
    for junk in [(3, 0), (3, 0, 10, 1), (3, 0, 11), (3, -1, 0), [3, 0, 10],
                 (3, 0.0, 10), (3, True, 10), (3, SubInt(4), 10), 5, None]:
        assert junk not in field, repr(junk)
        assert not field.contains_all([field.one, junk])


# every way a wire value can go wrong, plus plenty that are right
def wire_values(order: int):
    junk = [None, "7", 2.0, 2.5, float("nan"), True, False, (1, 2), (),
            Fraction(3), SubInt(3), -1, -order, order, order + 1, 1 << 70]
    if numpy_available():
        import numpy

        junk += [numpy.uint64(3), numpy.int32(3), numpy.float64(3.0)]
    return st.one_of(
        st.integers(min_value=0, max_value=order - 1),
        st.sampled_from([0, 1, order - 1, order - 2]),
        st.sampled_from(junk),
    )


@int_fields
@given(data=st.data())
def test_bulk_membership_is_the_scalar_rule_on_every_entry(field, data):
    # mostly clean tuples, so the accepting side is reached too
    clean = st.integers(min_value=0, max_value=field.order - 1)
    values = data.draw(st.one_of(
        st.lists(clean, max_size=40),
        st.lists(wire_values(field.order), max_size=12),
    ).map(tuple))
    expected = all(valid_element(field, v) for v in values)
    assert field.contains_all(values) is expected
    assert valid_element_tuple(field, values, len(values)) is expected


# -- one faulty sender must not crash, or split, the honest players ----------

def _float_exposer(coin_id, value):
    yield [multicast(("expose/" + coin_id, value))]


@int_fields
@pytest.mark.parametrize("liar", [1, 3, 7])
def test_a_non_int_share_cannot_crash_coin_expose(field, liar):
    for junk in impostors(5):
        secret, shares = make_dealer_coin(field, 7, 1, "c", random.Random(1))
        ctx = ProtocolContext.create(field, 7, 1, seed=1)
        outputs, _ = ctx.run(
            lambda pid: coin_expose(field, pid, shares[pid]),
            faulty={liar: _float_exposer("c", junk)},
            allow_broadcast=False,
        )
        honest = {pid: out for pid, out in outputs.items() if pid != liar}
        assert honest == {pid: secret for pid in honest}, repr(junk)


def _tamper(honest, suffix, mutate):
    """Run ``honest`` but rewrite the body of every ``*suffix`` message."""
    sends = next(honest)
    while True:
        inbox = yield [
            Send(s.dst, (s.payload[0], mutate(s.payload[1])), s.broadcast)
            if isinstance(s.payload, tuple) and len(s.payload) == 2
            and isinstance(s.payload[0], str) and s.payload[0].endswith(suffix)
            else s
            for s in sends
        ]
        try:
            sends = honest.send(inbox)
        except StopIteration:
            return


def _coin_gen_outputs(backend, faulty_programs):
    outputs, _ = run_coin_gen(
        GF2k(32, backend=backend), 7, 1, M=8, seed=5,
        faulty_programs=faulty_programs,
    )
    return {
        pid: (out.success, out.clique, out.self_ok,
              [share.my_value for share in out.coins])
        for pid, out in outputs.items() if pid not in faulty_programs
    }


@pytest.mark.parametrize("suffix", ["/sh", "/nu"])
@pytest.mark.parametrize("cheat", [2, 6])
def test_a_float_inside_a_share_tuple_or_announcement_is_just_a_bad_message(
    suffix, cheat
):
    """Player ``cheat`` puts 5.5 where a field element belongs: as one
    entry of the /sh tuple it deals, or of the /nu vector it announces."""
    def spoil(body):
        return (5.5,) + tuple(body[1:])

    by_backend = {
        backend: _coin_gen_outputs(
            backend, {cheat: lambda honest: _tamper(honest, suffix, spoil)}
        )
        for backend in available_backends()
    }
    for outputs in by_backend.values():
        assert all(success for success, *_ in outputs.values())
        assert len({clique for _, clique, *_ in outputs.values()}) == 1
        assert outputs == by_backend["python"]
