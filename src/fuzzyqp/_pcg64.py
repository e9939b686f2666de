"""numpy's default_rng(seed).uniform(0, high, (rows, n)) in pure Python.

Drawing solve_pg's multistart points this way leaves numpy.random, a few
megabytes of extension modules, unimported, and pins the stream: it is the
same whatever numpy's Generator does in a later release.

The generator is PCG64 (O'Neill 2014, XSL-RR 128/64), seeded as numpy seeds
it, through SeedSequence (O'Neill's seed_seq_fe mixing): the seed's 32-bit
words are hashed into a pool of 4 words, and the pool is hashed out into the
128-bit state and increment.  A draw steps the state and takes its top 53
output bits as a double in [0, 1), which is scaled by high.
"""
from __future__ import annotations

_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _hashmix(value: int, hash_const: list) -> int:
    value = (value ^ hash_const[0]) & _M32
    hash_const[0] = hash_const[0] * 0x931E8875 & _M32
    value = value * hash_const[0] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return result ^ result >> 16


def _pool(seed: int) -> list:
    """SeedSequence(seed).pool: the seed's 32-bit words, least significant
    first (one zero word for 0), hashed into 4 words."""
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    hash_const = [0x43B0D7E5]
    pool = [_hashmix(words[i] if i < len(words) else 0, hash_const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, hash_const))
    return pool


def uniform(seed: int, high: float, rows: int, n: int) -> list:
    """default_rng(seed).uniform(0.0, high, (rows, n)) as a list of rows of
    Python floats, with numpy's bits; seed is an int >= 0 or a numpy
    integer."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    pool, hash_const, state32 = _pool(int(seed)), 0x8B51F9DD, []
    for i in range(8):  # SeedSequence.generate_state(4, uint64), as 32-bit halves
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state32.append(value ^ value >> 16)
    words = [state32[i] | state32[i + 1] << 32 for i in range(0, 8, 2)]
    init, inc = words[0] << 64 | words[1], (words[2] << 64 | words[3]) << 1 & _M128 | 1
    state = ((inc + init) * _MULT + inc) & _M128  # from 0: step, add init, step
    out = []
    for _ in range(rows):
        row = []
        for _ in range(n):
            state = state * _MULT + inc & _M128
            rot = state >> 122
            v = (state >> 64 ^ state) & 0xFFFFFFFFFFFFFFFF
            v = (v >> rot | v << (64 - rot)) & 0xFFFFFFFFFFFFFFFF
            row.append(0.0 + high * ((v >> 11) * 2.0 ** -53))
        out.append(row)
    return out
