"""MS-OVBA §2.4.1 compression — the codec VBA module streams use.

Office stores VBA source inside module streams compressed with a run-length /
LZ77 hybrid.  A *CompressedContainer* is a signature byte ``0x01`` followed
by chunks; each chunk holds up to 4096 decompressed bytes and starts with a
2-byte little-endian header:

* bits 0–11: (chunk size − 3),
* bits 12–14: signature ``0b011``,
* bit 15: 1 = compressed, 0 = raw (4096 literal bytes follow).

Compressed chunk data is a sequence of token groups: one flag byte, then 8
tokens.  Flag bit *i* = 0 → the token is a literal byte; 1 → a 2-byte
*CopyToken* encoding (offset, length) into the already-decompressed chunk.
The offset/length bit split varies with the current position in the chunk::

    bit_count   = max(ceil(log2(position)), 4)
    length_mask = 0xFFFF >> bit_count
    offset      = (token >> (16 - bit_count)) + 1
    length      = (token & length_mask) + 3

Both directions are implemented: :func:`decompress` (what olevba needs) and
:func:`compress` (what the document builder needs).  ``decompress(compress(x))
== x`` is property-tested for arbitrary byte strings.
"""

from __future__ import annotations

SIGNATURE_BYTE = 0x01
CHUNK_SIZE = 4096
_CHUNK_SIG = 0b011


class OVBACompressionError(ValueError):
    """Raised on malformed compressed containers."""


def _copy_token_parameters(position: int) -> tuple[int, int, int]:
    """Return (length_mask, offset_mask, bit_count) for a chunk position.

    ``position`` is the number of bytes already decompressed in the current
    chunk (must be >= 1: a copy token can never be the first token).
    """
    bit_count = 4
    while (1 << bit_count) < position:
        bit_count += 1
    bit_count = max(bit_count, 4)
    bit_count = min(bit_count, 12)
    length_mask = 0xFFFF >> bit_count
    offset_mask = (~length_mask) & 0xFFFF
    return length_mask, offset_mask, bit_count


#: Copy-token bit count by chunk position, for every position a chunk can
#: hold; past a full chunk (malformed input only) the count stays 12.
_BIT_COUNTS: tuple[int, ...] = tuple(
    _copy_token_parameters(position)[2] for position in range(CHUNK_SIZE + 1)
)


# ----------------------------------------------------------------------
# Decompression


def decompress(data: bytes) -> bytes:
    """Decompress a CompressedContainer back to the original bytes."""
    if not data:
        raise OVBACompressionError("empty container")
    if data[0] != SIGNATURE_BYTE:
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
        if signature != _CHUNK_SIG:
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
        position = _decompress_chunk(data, position, chunk_end, output)
    return bytes(output)


def _decompress_chunk(
    data: bytes, position: int, chunk_end: int, output: bytearray
) -> int:
    chunk_start_in_output = len(output)
    while position < chunk_end:
        flags = data[position]
        position += 1
        for bit in range(8):
            if position >= chunk_end:
                break
            if flags & (1 << bit):
                if position + 2 > chunk_end:
                    raise OVBACompressionError("truncated copy token")
                token = data[position] | (data[position + 1] << 8)
                position += 2
                decompressed_in_chunk = len(output) - chunk_start_in_output
                bit_count = _BIT_COUNTS[min(decompressed_in_chunk, CHUNK_SIZE)]
                length = (token & (0xFFFF >> bit_count)) + 3
                offset = (token >> (16 - bit_count)) + 1
                if offset > decompressed_in_chunk:
                    raise OVBACompressionError(
                        f"copy token offset {offset} reaches before chunk start"
                    )
                source = len(output) - offset
                if offset >= length:
                    output += output[source : source + length]
                else:
                    # Overlapping copies are legal (RLE): copy byte-by-byte.
                    for step in range(length):
                        output.append(output[source + step])
            else:
                output.append(data[position])
                position += 1
    return position


# ----------------------------------------------------------------------
# Compression


#: Largest chunk-data payload the 12-bit size field can describe.
_MAX_CHUNK_DATA = 4095


def compress(data: bytes) -> bytes:
    """Compress bytes into a CompressedContainer.

    Round-trip exact for arbitrary input.  Incompressible *full* chunks fall
    back to the spec's raw encoding (exactly 4096 literal bytes, no padding
    needed); an incompressible *partial* final chunk is split into smaller
    chunks instead, avoiding the spec's lossy raw-chunk padding.
    """
    output = bytearray([SIGNATURE_BYTE])
    for chunk_start in range(0, len(data), CHUNK_SIZE):
        chunk = data[chunk_start : chunk_start + CHUNK_SIZE]
        _emit_chunk(chunk, output)
    return bytes(output)


def _emit_chunk(chunk: bytes, output: bytearray) -> None:
    compressed = _compress_chunk(chunk)
    if len(compressed) <= _MAX_CHUNK_DATA and len(compressed) < len(chunk):
        header = 0x8000 | (_CHUNK_SIG << 12) | ((len(compressed) + 2) - 3)
        output.extend(header.to_bytes(2, "little"))
        output.extend(compressed)
        return
    if len(chunk) == CHUNK_SIZE:
        # Raw chunk: exactly 4096 literal bytes, the spec's fallback.
        header = (_CHUNK_SIG << 12) | ((CHUNK_SIZE + 2) - 3)
        output.extend(header.to_bytes(2, "little"))
        output.extend(chunk)
        return
    if len(compressed) <= _MAX_CHUNK_DATA:
        # Partial chunk whose compressed form fits but did not shrink —
        # still store it compressed to stay byte-exact (no padding).
        header = 0x8000 | (_CHUNK_SIG << 12) | ((len(compressed) + 2) - 3)
        output.extend(header.to_bytes(2, "little"))
        output.extend(compressed)
        return
    # Incompressible partial chunk too large for one compressed chunk:
    # split it — decompression simply concatenates chunks.
    middle = len(chunk) // 2
    _emit_chunk(chunk[:middle], output)
    _emit_chunk(chunk[middle:], output)


def _compress_chunk(chunk: bytes) -> bytes:
    """Greedy LZ77 within one chunk, emitting flag-byte token groups."""
    result = bytearray()
    position = 0
    n = len(chunk)
    # Index of 3-byte prefixes already seen → candidate match positions.
    candidates: dict[bytes, list[int]] = {}

    while position < n:
        flag = 0
        group = bytearray()
        for bit in range(8):
            if position >= n:
                break
            match = _find_match(chunk, position, candidates)
            if match is not None:
                offset, length = match
                length_mask, _, bit_count = _copy_token_parameters(position)
                token = ((offset - 1) << (16 - bit_count)) | (length - 3)
                group.extend(token.to_bytes(2, "little"))
                flag |= 1 << bit
                for advance in range(length):
                    _index_position(chunk, position + advance, candidates)
                position += length
            else:
                group.append(chunk[position])
                _index_position(chunk, position, candidates)
                position += 1
        result.append(flag)
        result.extend(group)
    return bytes(result)


def _index_position(chunk: bytes, position: int, candidates: dict) -> None:
    if position + 3 <= len(chunk):
        key = chunk[position : position + 3]
        candidates.setdefault(key, []).append(position)


def _find_match(
    chunk: bytes, position: int, candidates: dict
) -> tuple[int, int] | None:
    """Find the longest legal back-reference at ``position``."""
    if position == 0 or position + 3 > len(chunk):
        return None
    length_mask, _, bit_count = _copy_token_parameters(position)
    max_length = length_mask + 3
    max_offset = 1 << bit_count
    key = chunk[position : position + 3]
    positions = candidates.get(key)
    if not positions:
        return None
    best: tuple[int, int] | None = None
    # Newest candidates first: smaller offsets, typically longer legal runs.
    for start in reversed(positions[-32:]):
        offset = position - start
        if offset > max_offset or offset < 1:
            continue
        limit = min(max_length, len(chunk) - position)
        length = 0
        while length < limit:
            # Self-overlapping matches are legal (RLE): a source index at or
            # past ``position`` refers to bytes the copy itself produced,
            # which repeat with period ``offset``.
            source = start + (length % offset if length >= offset else length)
            if chunk[source] != chunk[position + length]:
                break
            length += 1
        if length >= 3 and (best is None or length > best[1]):
            best = (offset, length)
            if length == max_length:
                break
    return best
