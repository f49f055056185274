"""Differential tests: the slice-copy decompressor against the per-byte one.

``_oracle_decompress`` below is the MS-OVBA decompressor as it was before
non-overlapping copies became slice copies and the copy-token split a table
lookup.  The current :func:`repro.ole.compression.decompress` must return
the same bytes on every container, and on a malformed one raise the same
exception type with the same message.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ole.compression import (
    CHUNK_SIZE,
    OVBACompressionError,
    _copy_token_parameters,
    compress,
    decompress,
)


def _oracle_decompress(data: bytes) -> bytes:
    if not data:
        raise OVBACompressionError("empty container")
    if data[0] != 0x01:
        raise OVBACompressionError(
            f"bad container signature byte: {data[0]:#04x}"
        )
    output = bytearray()
    position = 1
    while position < len(data):
        if position + 2 > len(data):
            raise OVBACompressionError("truncated chunk header")
        header = int.from_bytes(data[position : position + 2], "little")
        position += 2
        chunk_data_size = (header & 0x0FFF) + 3 - 2
        signature = (header >> 12) & 0b111
        if signature != 0b011:
            raise OVBACompressionError(
                f"bad chunk signature: {signature:#05b}"
            )
        compressed = bool(header & 0x8000)
        chunk_end = position + chunk_data_size
        if chunk_end > len(data):
            raise OVBACompressionError("chunk runs past end of container")
        if not compressed:
            output.extend(data[position:chunk_end])
            position = chunk_end
            continue
        position = _oracle_chunk(data, position, chunk_end, output)
    return bytes(output)


def _oracle_chunk(data, position, chunk_end, output):
    chunk_start_in_output = len(output)
    while position < chunk_end:
        flags = data[position]
        position += 1
        for bit in range(8):
            if position >= chunk_end:
                break
            decompressed_in_chunk = len(output) - chunk_start_in_output
            if flags & (1 << bit):
                if position + 2 > chunk_end:
                    raise OVBACompressionError("truncated copy token")
                token = int.from_bytes(data[position : position + 2], "little")
                position += 2
                length_mask, _, bit_count = _copy_token_parameters(
                    decompressed_in_chunk
                )
                length = (token & length_mask) + 3
                offset = (token >> (16 - bit_count)) + 1
                if offset > decompressed_in_chunk:
                    raise OVBACompressionError(
                        f"copy token offset {offset} reaches before chunk start"
                    )
                source = len(output) - offset
                for step in range(length):
                    output.append(output[source + step])
            else:
                output.append(data[position])
                position += 1
    return position


def _outcome(function, data):
    try:
        return ("ok", function(data))
    except Exception as error:  # compared by type and message
        return (type(error), str(error))


def assert_same(data: bytes) -> None:
    assert _outcome(decompress, data) == _outcome(_oracle_decompress, data)


def _compressed_chunk(payload: bytes) -> bytes:
    """``payload`` as one compressed chunk, whatever its contents."""
    header = 0x8000 | (0b011 << 12) | ((len(payload) + 2) - 3)
    return header.to_bytes(2, "little") + payload


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=3 * CHUNK_SIZE))
    def test_arbitrary_bytes(self, data):
        assert_same(compress(data))

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(min_size=1, max_size=40),
        st.integers(min_value=1, max_value=400),
    )
    def test_periodic_data_mixes_overlapping_and_plain_copies(self, unit, repeats):
        assert_same(compress(unit * repeats))

    def test_vba_source(self):
        source = (
            b"Sub AutoOpen()\r\n    Dim s As String\r\n"
            + b'    s = "http://example.com/" & Chr(47)\r\n' * 300
            + b"End Sub\r\n"
        )
        container = compress(source)
        assert decompress(container) == _oracle_decompress(container) == source


class TestMalformedContainers:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=1, max_size=600))
    def test_arbitrary_chunk_payloads(self, payload):
        """Any bytes as a chunk body: literals, copies, bad offsets, and
        copies that decompress past a full chunk."""
        assert_same(b"\x01" + _compressed_chunk(payload[:4095]))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_containers(self, data):
        assert_same(data)
        assert_same(b"\x01" + data)

    def test_mutated_real_containers(self):
        rng = random.Random(12)
        base = compress(b"Attribute VB_Name = \"Module1\"\r\n" * 400)
        for _ in range(400):
            blob = bytearray(base)
            for _ in range(rng.randint(1, 4)):
                blob[rng.randrange(1, len(blob))] = rng.getrandbits(8)
            cut = rng.randint(1, len(blob))
            assert_same(bytes(blob[:cut]))
            assert_same(bytes(blob))

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x01" + (0x0000).to_bytes(2, "little"),  # copy before any byte
            b"\x02a" + b"\x00",  # truncated copy token
            b"\x02a" + (0xF000).to_bytes(2, "little"),  # offset past the start
            # A length-4098 copy at position 1, then more: past a full chunk.
            b"\x06a" + (0x0FFF).to_bytes(2, "little") * 2 + b"\x00" + b"z" * 8,
        ],
    )
    def test_edge_payloads(self, payload):
        assert_same(b"\x01" + _compressed_chunk(payload))
