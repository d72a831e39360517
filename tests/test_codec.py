"""Wire codec round-trips and error handling."""

import pytest
from hypothesis import given, strategies as st

from repro.net import codec

payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**128), max_value=2**128)
    | st.text(max_size=20),
    lambda children: st.tuples(children, children)
    | st.tuples(children)
    | st.tuples(children, children, children),
    max_leaves=12,
)


class TestRoundTrip:
    @given(payload=payloads)
    def test_round_trip(self, payload):
        assert codec.decode(codec.encode(payload)) == payload

    def test_protocol_shaped_payloads(self):
        samples = [
            ("cg/sh", (123456789, 987654321, 0)),
            ("expose/seed-0", 42),
            ("cg/gc/echo", ((1, ("prop", (1, 2, 3), ())), (2, "x"))),
            ("ba/p1/vote", 1),
            None,
            (),
        ]
        for payload in samples:
            assert codec.decode(codec.encode(payload)) == payload

    def test_distinguishes_bool_from_int(self):
        assert codec.decode(codec.encode(True)) is True
        assert codec.decode(codec.encode(1)) == 1
        assert codec.decode(codec.encode(1)) is not True

    def test_negative_ints(self):
        assert codec.decode(codec.encode(-7)) == -7
        assert codec.decode(codec.encode(-(2**100))) == -(2**100)


class TestSizes:
    def test_int_size_scales_with_bits(self):
        small = codec.encoded_size(("t", 255))
        big = codec.encoded_size(("t", 2**255))
        assert big - small == 31  # 32-byte int vs 1-byte int

    def test_field_element_tuple(self):
        # a Bit-Gen share message with 4 GF(2^32) elements
        payload = ("bg/sh", tuple([2**31] * 4))
        size = codec.encoded_size(payload)
        assert 4 * 4 <= size <= 4 * 4 + 20  # elements + framing


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(codec.CodecError):
            codec.encode([1, 2, 3])
        with pytest.raises(codec.CodecError):
            codec.encode({"a": 1})

    def test_truncated(self):
        data = codec.encode(("tag", 123))
        with pytest.raises(codec.CodecError):
            codec.decode(data[:-1])

    def test_trailing_garbage(self):
        with pytest.raises(codec.CodecError):
            codec.decode(codec.encode(1) + b"x")

    def test_unknown_type_byte(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"Z")

    def test_empty(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"")

    def test_bad_utf8(self):
        with pytest.raises(codec.CodecError):
            codec.decode(b"s\x02\xff\xfe")


def _flip(raw: bytes, at: int, byte: int) -> bytes:
    at %= len(raw) + 1
    return raw[:at] + bytes([byte]) + raw[at + 1:]


#: bytes off the wire: noise, valid encodings with one byte changed, and
#: tuples nested on either side of the depth bound
hostile = (
    st.binary(max_size=64)
    | st.builds(_flip, payloads.map(codec.encode), st.integers(0, 255),
                st.integers(0, 255))
    | st.integers(0, 3 * codec.MAX_DEPTH).map(lambda d: b"(\x01" * d + b"N")
)


class TestHostileBytes:
    @given(data=hostile)
    def test_decode_is_a_codec_error_or_a_payload_that_round_trips(self, data):
        try:
            payload = codec.decode(data)
        except codec.CodecError:
            return
        assert codec.decode(codec.encode(payload)) == payload

    def test_a_nesting_bomb_is_a_codec_error(self):
        """Raised ``RecursionError`` from inside the decoder before the
        depth bound."""
        with pytest.raises(codec.CodecError, match="nested deeper"):
            codec.decode(b"(\x01" * 100_000 + b"N")

    def test_the_bound_is_the_same_on_both_sides(self):
        payload = None
        for _ in range(codec.MAX_DEPTH):
            payload = (payload,)
        assert codec.decode(codec.encode(payload)) == payload
        with pytest.raises(codec.CodecError, match="nested deeper"):
            codec.encode((payload,))
        with pytest.raises(codec.CodecError, match="nested deeper"):
            codec.decode(b"(\x01" + codec.encode(payload))


class TestProtocolIntegration:
    def test_every_coin_gen_message_is_encodable(self):
        """All payloads crossing the simulated network during a real
        Coin-Gen run must survive the wire codec."""
        from repro.fields import GF2k
        from repro.net.simulator import SynchronousNetwork
        from repro.protocols.coin_gen import make_seed_coins, coin_gen_program
        import random

        F = GF2k(32)
        n, t = 7, 1
        seeds = make_seed_coins(F, n, t, 4, random.Random(0))

        crossing = []
        original_expand = SynchronousNetwork._expand

        def spying_expand(self, src, sends):
            deliveries = original_expand(self, src, sends)
            crossing.extend(payload for _, payload in deliveries)
            return deliveries

        SynchronousNetwork._expand = spying_expand
        try:
            net = SynchronousNetwork(n, field=F, allow_broadcast=False)
            programs = {
                pid: coin_gen_program(
                    F, n, t, pid, 2, seeds[pid], random.Random(pid)
                )
                for pid in range(1, n + 1)
            }
            net.run(programs)
        finally:
            SynchronousNetwork._expand = original_expand

        assert crossing
        for payload in crossing:
            assert codec.decode(codec.encode(payload)) == payload
