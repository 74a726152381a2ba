"""Real cryptographic primitives used by the AES and Auth handlers.

Pure-Python, from-scratch AES-128 (ECB over padded input) and SHA-256 /
HMAC-SHA256.  The handlers execute these for real — the ciphertexts and
digests in the RPC responses are genuine — and their block/round counts
parameterise the IR work models.
"""

from __future__ import annotations

from typing import List

# ---------------------------------------------------------------------------
# AES-128
# ---------------------------------------------------------------------------

_SBOX: List[int] = []


def _build_sbox() -> List[int]:
    """Compute the AES S-box from GF(2^8) inverses + affine transform."""
    # Multiplicative inverse table via exp/log over generator 3.
    exp = [0] * 510
    log = [0] * 256
    value = 1
    for exponent in range(255):
        exp[exponent] = value
        log[value] = exponent
        value ^= (value << 1) ^ (0x11B if value & 0x80 else 0)
        value &= 0xFF
    for exponent in range(255, 510):
        exp[exponent] = exp[exponent - 255]

    sbox = [0] * 256
    for byte in range(256):
        inverse = 0 if byte == 0 else exp[255 - log[byte]]
        result = inverse
        for _ in range(4):
            inverse = ((inverse << 1) | (inverse >> 7)) & 0xFF
            result ^= inverse
        sbox[byte] = result ^ 0x63
    return sbox


def _sbox() -> List[int]:
    if not _SBOX:
        _SBOX.extend(_build_sbox())
    return _SBOX


def _xtime(byte: int) -> int:
    byte <<= 1
    return (byte ^ 0x1B) & 0xFF if byte & 0x100 else byte


def _expand_key(key: bytes) -> List[List[int]]:
    """AES-128 key schedule: 11 round keys of 16 bytes."""
    if len(key) != 16:
        raise ValueError("AES-128 needs a 16-byte key, got %d" % len(key))
    sbox = _sbox()
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    rcon = 1
    for index in range(4, 44):
        word = list(words[index - 1])
        if index % 4 == 0:
            word = word[1:] + word[:1]
            word = [sbox[b] for b in word]
            word[0] ^= rcon
            rcon = _xtime(rcon)
        words.append([a ^ b for a, b in zip(word, words[index - 4])])
    return [
        [byte for word in words[round_index * 4:round_index * 4 + 4] for byte in word]
        for round_index in range(11)
    ]


# T-table round core: the SubBytes/ShiftRows/MixColumns composition for
# one state byte collapses into a single 32-bit table lookup (one table
# per byte position in a column), the standard software-AES formulation.
# Ciphertexts are bit-identical to the naive round loop; the per-block
# Python op count drops ~5x.
_TTABLES: List[List[int]] = []


def _ttables() -> List[List[int]]:
    if not _TTABLES:
        sbox = _sbox()
        t0, t1, t2, t3 = [], [], [], []
        for byte in range(256):
            s = sbox[byte]
            s2 = _xtime(s)
            s3 = s2 ^ s
            t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
            t1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
            t2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
            t3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
        _TTABLES.extend([t0, t1, t2, t3])
    return _TTABLES


def _pack_round_keys(round_keys: List[List[int]]) -> List[List[int]]:
    """Round keys as four big-endian 32-bit column words each."""
    return [
        [(rk[c * 4] << 24) | (rk[c * 4 + 1] << 16)
         | (rk[c * 4 + 2] << 8) | rk[c * 4 + 3] for c in range(4)]
        for rk in round_keys
    ]


def _encrypt_block_packed(c0: int, c1: int, c2: int, c3: int,
                          packed_keys: List[List[int]]) -> List[int]:
    """One AES-128 block over packed column words; returns 4 words."""
    t0, t1, t2, t3 = _ttables()
    sbox = _sbox()
    rk = packed_keys[0]
    c0 ^= rk[0]
    c1 ^= rk[1]
    c2 ^= rk[2]
    c3 ^= rk[3]
    for round_index in range(1, 10):
        rk = packed_keys[round_index]
        n0 = (t0[c0 >> 24] ^ t1[(c1 >> 16) & 0xFF]
              ^ t2[(c2 >> 8) & 0xFF] ^ t3[c3 & 0xFF] ^ rk[0])
        n1 = (t0[c1 >> 24] ^ t1[(c2 >> 16) & 0xFF]
              ^ t2[(c3 >> 8) & 0xFF] ^ t3[c0 & 0xFF] ^ rk[1])
        n2 = (t0[c2 >> 24] ^ t1[(c3 >> 16) & 0xFF]
              ^ t2[(c0 >> 8) & 0xFF] ^ t3[c1 & 0xFF] ^ rk[2])
        n3 = (t0[c3 >> 24] ^ t1[(c0 >> 16) & 0xFF]
              ^ t2[(c1 >> 8) & 0xFF] ^ t3[c2 & 0xFF] ^ rk[3])
        c0, c1, c2, c3 = n0, n1, n2, n3
    rk = packed_keys[10]
    return [
        ((sbox[c0 >> 24] << 24) | (sbox[(c1 >> 16) & 0xFF] << 16)
         | (sbox[(c2 >> 8) & 0xFF] << 8) | sbox[c3 & 0xFF]) ^ rk[0],
        ((sbox[c1 >> 24] << 24) | (sbox[(c2 >> 16) & 0xFF] << 16)
         | (sbox[(c3 >> 8) & 0xFF] << 8) | sbox[c0 & 0xFF]) ^ rk[1],
        ((sbox[c2 >> 24] << 24) | (sbox[(c3 >> 16) & 0xFF] << 16)
         | (sbox[(c0 >> 8) & 0xFF] << 8) | sbox[c1 & 0xFF]) ^ rk[2],
        ((sbox[c3 >> 24] << 24) | (sbox[(c0 >> 16) & 0xFF] << 16)
         | (sbox[(c1 >> 8) & 0xFF] << 8) | sbox[c2 & 0xFF]) ^ rk[3],
    ]


def aes128_encrypt(plaintext: bytes, key: bytes) -> bytes:
    """Encrypt with AES-128-ECB over zero-padded input."""
    packed_keys = _pack_round_keys(_expand_key(key))
    padding = (-len(plaintext)) % 16
    padded = plaintext + b"\x00" * padding
    out = bytearray()
    for offset in range(0, len(padded), 16):
        block = padded[offset:offset + 16]
        for word in _encrypt_block_packed(
                int.from_bytes(block[0:4], "big"),
                int.from_bytes(block[4:8], "big"),
                int.from_bytes(block[8:12], "big"),
                int.from_bytes(block[12:16], "big"), packed_keys):
            out.extend(word.to_bytes(4, "big"))
    return bytes(out)


def aes_block_count(payload_len: int) -> int:
    """Number of 16-byte blocks AES processes for a payload."""
    return max(1, (payload_len + 15) // 16)


# ---------------------------------------------------------------------------
# SHA-256 / HMAC
# ---------------------------------------------------------------------------

_SHA_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_MASK = 0xFFFFFFFF


def _rotr(value: int, amount: int) -> int:
    return ((value >> amount) | (value << (32 - amount))) & _MASK


def sha256(message: bytes) -> bytes:
    """From-scratch SHA-256."""
    state = [0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
             0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19]
    length = len(message)
    message += b"\x80"
    message += b"\x00" * ((55 - length) % 64)
    message += (length * 8).to_bytes(8, "big")

    for offset in range(0, len(message), 64):
        chunk = message[offset:offset + 64]
        schedule = [int.from_bytes(chunk[i:i + 4], "big") for i in range(0, 64, 4)]
        for index in range(16, 64):
            s0 = (_rotr(schedule[index - 15], 7) ^ _rotr(schedule[index - 15], 18)
                  ^ (schedule[index - 15] >> 3))
            s1 = (_rotr(schedule[index - 2], 17) ^ _rotr(schedule[index - 2], 19)
                  ^ (schedule[index - 2] >> 10))
            schedule.append((schedule[index - 16] + s0 + schedule[index - 7] + s1) & _MASK)
        a, b, c, d, e, f, g, h = state
        for index in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _SHA_K[index] + schedule[index]) & _MASK
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & _MASK
            a, b, c, d, e, f, g, h = (temp1 + temp2) & _MASK, a, b, c, (d + temp1) & _MASK, e, f, g
        state = [(x + y) & _MASK for x, y in zip(state, (a, b, c, d, e, f, g, h))]
    return b"".join(word.to_bytes(4, "big") for word in state)


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 per RFC 2104."""
    if len(key) > 64:
        key = sha256(key)
    key = key + b"\x00" * (64 - len(key))
    inner = sha256(bytes(b ^ 0x36 for b in key) + message)
    return sha256(bytes(b ^ 0x5C for b in key) + inner)


def sha256_chunk_count(message_len: int) -> int:
    """Number of 64-byte compression rounds SHA-256 runs for a message."""
    padded = message_len + 1 + ((55 - message_len) % 64) + 8
    return padded // 64
