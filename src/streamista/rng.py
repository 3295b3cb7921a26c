"""Seed plumbing built on numpy's counter-based Philox generator.

Every random draw in the package is reproducible from (seed, stream path)
alone.  Substreams are split with ``SeedSequence`` spawn keys, which keeps
trial-level work order-independent under any worker pool.  ``make_rng`` and
``derive_seed`` give one generator or one child seed per call; they are the
reference the block path below reproduces.

Trial inputs come many to a block, so they take the block path instead:
``derive_seeds`` and ``philox_keys`` run ``SeedSequence``'s hash (NEP 19,
after O'Neill's ``seed_seq``) over every row at once in numpy ``uint32``
arithmetic, and ``keyed_generators`` draws each row from one ``Philox``
reset to the row's key.  Each row has the bits of its scalar call: row i of
``derive_seeds(seed, streams)`` is ``derive_seed(seed, *streams[i])``, row
i of ``philox_keys(seeds, *stream)`` is the key ``make_rng(seeds[i],
*stream)`` starts from, and the generator ``keyed_generators`` yields for
that key draws what ``make_rng(seeds[i], *stream)`` draws.  The hash has a
fixed cost of about a hundred numpy calls, so callers derive the keys of
many rows per call.
"""

import numpy as np


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a Generator for ``seed``, optionally split into a substream.

    The same (seed, stream) pair always yields the same draws; distinct
    stream paths are statistically independent.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *stream: int) -> int:
    """Deterministic child seed for (seed, stream), as a plain uint64 value."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)


def _words(value: int) -> list:
    """Little-endian uint32 words of a nonnegative integer; 0 is one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a hash constant, ``(count, 1)`` uint32."""
    consts = [init]
    for _ in range(count - 1):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool ``(4, rows)`` of every column of ``entropy`` ``(words, rows)``.

    A column shorter than the pool hashes as if padded with zero words.  The
    hash constant advances once per hash call, whatever the data, so the
    calls that share an input (one entropy word into each pool word) run as
    one vectorised call on consecutive constants.
    """
    words, rows = entropy.shape
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, words - _POOL_SIZE)
    consts = _hash_consts(_INIT_A, _MULT_A, calls + 1)
    done = 0

    def hashmix(values, count):
        nonlocal done
        out = (values ^ consts[done : done + count]) * consts[done + 1 : done + count + 1]
        done += count
        return out ^ (out >> _SHIFT)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> _SHIFT)

    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[: min(words, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    for word in entropy[_POOL_SIZE:]:
        pool = mix(pool, hashmix(word, _POOL_SIZE))
    return pool


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, uint64)`` of every pool column: ``(rows, n_words)``."""
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * n_words + 1)
    state = pool[np.arange(2 * n_words) % _POOL_SIZE] ^ consts[:-1]
    state *= consts[1:]
    state ^= state >> _SHIFT
    state = state.astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def derive_seeds(seed: int, streams) -> np.ndarray:
    """``derive_seed(seed, *row)`` for every row of ``streams``, as a uint64 array.

    ``streams`` is ``(rows, depth)`` of stream indices below 2**64, with
    ``depth >= 1``; an index outside [0, 2**64), or not an integer, raises
    ValueError.  The run entropy (the seed's words) is padded to the pool
    size, as a spawn key makes ``SeedSequence`` do, and a stream index of
    2**32 or more takes two words, so rows are hashed in groups of one word
    layout.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    streams = _uint64_values(streams, "stream index")
    if streams.ndim != 2 or streams.shape[1] < 1:
        raise ValueError(f"streams must be (rows, depth >= 1), got shape {streams.shape}")
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    # a row's layout flags the stream indices that take two words
    wide = streams > _MASK32
    out = np.empty(len(streams), dtype=np.uint64)
    for layout in {tuple(row) for row in wide.tolist()}:
        rows = np.flatnonzero((wide == layout).all(axis=1))
        entropy = [np.full(rows.size, w, dtype=np.uint32) for w in run]
        for col, two_words in zip(streams[rows].T, layout):
            entropy.append((col & np.uint64(_MASK32)).astype(np.uint32))
            if two_words:
                entropy.append((col >> np.uint64(32)).astype(np.uint32))
        out[rows] = _generate_state(_mix_entropy(np.stack(entropy)), 1)[:, 0]
    return out


def _check_uint64(value, name: str) -> None:
    """Raise ValueError unless ``value`` is an integer in [0, 2**64), a uint64 value.

    An integral float passes, as ``int(value)`` would take it.  ``name``
    names the value in the message.
    """
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    )
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


def _uint64_values(values, name: str) -> np.ndarray:
    """``values`` as a uint64 array, every entry first checked by :func:`_check_uint64`.

    A cast alone would wrap -1 to 2**64 - 1 and truncate 1.5 to 1, and
    ``np.asarray`` would turn a list holding 0 and 2**64 - 1 into floats,
    so other input is checked entry by entry as Python numbers.  An
    unsigned integer array needs no check, so the harness's uint64 key
    arrays pay nothing, and a signed one is checked by its minimum.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if values.dtype.kind == "i" and values.size and values.min() < 0:
            _check_uint64(int(values.min()), name)
        return values.astype(np.uint64, copy=False)
    array = np.asarray(values, dtype=object)
    for value in array.ravel().tolist():
        _check_uint64(value, name)
    return array.astype(np.uint64)


def philox_keys(seeds, *stream: int) -> np.ndarray:
    """The Philox key ``make_rng(seed, *stream)`` starts from, for every uint64 seed: ``(rows, 2)``.

    That key is ``SeedSequence(seed, spawn_key=stream).generate_state(2,
    uint64)``.  Without a stream, a seed below 2**32 is one entropy word,
    which hashes as its two-word form; with one, the seed's words are
    padded to the pool size, as a spawn key makes ``SeedSequence`` do, and
    each stream index below 2**64 follows as one or two words.  A seed or
    index outside [0, 2**64), or not an integer, raises ValueError.
    """
    seeds = _uint64_values(seeds, "seed")
    entropy = [seeds & np.uint64(_MASK32), seeds >> np.uint64(32)]
    if stream:
        entropy += [np.zeros_like(seeds)] * (_POOL_SIZE - 2)
    for index in stream:
        _check_uint64(index, "stream index")
        entropy += [np.full_like(seeds, word) for word in _words(int(index))]
    return _generate_state(_mix_entropy(np.stack(entropy).astype(np.uint32)), 2)


def keyed_generators(keys):
    """Yield a generator for every Philox key: the one ``make_rng`` starts from that key.

    One Philox, local to the call, serves every key: before each yield it
    is reset to counter 0, the key and an empty buffer, the state a freshly
    seeded Philox starts in.  So the generator yielded for a key is valid
    until the next one is drawn.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # plain lists and ints, which the state setter reads element by element
    # faster than array entries
    reset = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in np.asarray(keys).tolist():
        reset["state"]["key"] = key
        bitgen.state = reset
        yield gen


def standard_normals(keys, out: np.ndarray) -> np.ndarray:
    """Fill ``out[i]`` with standard normals from Philox key ``keys[i]``, in C order.

    ``out[i]`` must be contiguous; it gets the bits of
    ``make_rng(...).standard_normal(out[i].shape)`` for the seed and stream
    that key stands for.
    """
    for row, gen in zip(out, keyed_generators(keys)):
        gen.standard_normal(out=row)
    return out
