"""Stimulus sequence toolbox: m-sequences, Gold codes, flash modulation,
and structure matrices for reconvolution decoding.

Binary sequences are numpy uint8 arrays of 0/1 bits. A codebook stacks
equal-length sequences row-wise with shape (n_codes, n_bits).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Classic preferred pairs per register degree. Masks include both the
# x^degree term and the constant term, LSB = constant: x^6 + x + 1 -> 0b1000011.
PREFERRED_PAIRS = {
    5: (0b100101, 0b111101),
    6: (0b1000011, 0b1100111),
    7: (0b10001001, 0b10001111),
}


@dataclass(frozen=True)
class Codebook:
    """A set of equal-length binary stimulus sequences.

    Attributes
    ----------
    codes: np.ndarray
        Binary matrix of shape (n_codes, n_bits), dtype uint8.
    rate_hz: float
        Presentation rate of the stored bits in Hz.
    """

    codes: np.ndarray
    rate_hz: float

    @property
    def n_codes(self):
        return self.codes.shape[0]



def make_m_sequence(poly, seed=1):
    """Generate a maximal-length sequence from a linear feedback shift register.

    Parameters
    ----------
    poly: int
        Primitive polynomial as a bitmask including the x^degree term and the
        constant term, e.g. x^3 + x + 1 -> 0b1011. Degree must be in [2, 16].
    seed: int (default: 1)
        Nonzero initial register state; bits are emitted LSB first.

    Returns
    -------
    code: np.ndarray
        Binary vector of length 2^degree - 1, dtype uint8.

    Raises
    ------
    ValueError
        If the polynomial is out of range or not primitive (the register does
        not traverse the full 2^degree - 1 cycle from the given seed).
    """
    degree = int(poly).bit_length() - 1
    if not 2 <= degree <= 16:
        raise ValueError(f"polynomial degree {degree} outside [2, 16]")
    seed = int(seed)
    if seed == 0:
        raise ValueError("seed register state must be nonzero")
    if not 0 < seed < (1 << degree):
        raise ValueError(f"seed 0x{seed:x} does not fit a degree-{degree} register")

    period = (1 << degree) - 1
    taps = poly & ~(1 << degree)
    code = np.empty(period, dtype=np.uint8)
    state = seed
    for i in range(period):
        code[i] = state & 1
        feedback = (state & taps).bit_count() & 1
        state = (state >> 1) | (feedback << (degree - 1))
        if state == seed and i + 1 < period:
            raise ValueError(
                f"polynomial 0b{poly:b} is not primitive: register period "
                f"{i + 1} < {period}"
            )
    if state != seed:
        raise ValueError(f"polynomial 0b{poly:b} is not primitive: register cycle broken")
    return code


def periodic_crosscorrelation(code_a, code_b):
    """Periodic cross-correlation of two binary codes over all cyclic shifts.

    Codes are mapped to the +-1 alphabet (0 -> +1, 1 -> -1) and correlated
    circularly, so values are integers in [-n_bits, n_bits].

    Returns
    -------
    corr: np.ndarray
        Integer vector of length n_bits; entry k is the correlation of code_a
        with code_b rolled right by k bits (numpy.roll convention).
    """
    a = 1.0 - 2.0 * np.asarray(code_a, dtype=float)
    b = 1.0 - 2.0 * np.asarray(code_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("codes must be 1-D and of equal length")
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b))).real
    return np.rint(corr).astype(np.int64)


def _gold_value_set(degree):
    # Three-valued spectrum bound for preferred pairs: {-1, -t, t-2}.
    if degree % 2 == 0:
        t = 2 ** ((degree + 2) // 2) + 1
    else:
        t = 2 ** ((degree + 1) // 2) + 1
    return {-1, -t, t - 2}


def make_gold_codes(poly_a=0b1000011, poly_b=0b1100111, seed_a=1, seed_b=1):
    """Generate the full Gold code family from a preferred pair of m-sequences.

    The family holds the two base sequences plus the XOR of the first with all
    cyclic shifts of the second: 2^degree + 1 codes of 2^degree - 1 bits.

    Parameters
    ----------
    poly_a, poly_b: int (default: the degree-6 pair x^6+x+1, x^6+x^5+x^2+x+1)
        Primitive polynomial masks of equal degree forming a preferred pair.
    seed_a, seed_b: int (default: 1)
        Initial register states of the two shift registers.

    Returns
    -------
    codes: np.ndarray
        Binary matrix of shape (2^degree + 1, 2^degree - 1), dtype uint8.

    Raises
    ------
    ValueError
        If the polynomials differ in degree, are identical, are not primitive,
        or do not form a preferred pair (cross-correlation not three-valued).
    """
    if poly_a == poly_b:
        raise ValueError("degenerate pair: the two polynomials are identical")
    degree_a = int(poly_a).bit_length() - 1
    degree_b = int(poly_b).bit_length() - 1
    if degree_a != degree_b:
        raise ValueError(f"polynomial degrees differ: {degree_a} != {degree_b}")

    base_a = make_m_sequence(poly_a, seed_a)
    base_b = make_m_sequence(poly_b, seed_b)
    allowed = _gold_value_set(degree_a)
    observed = set(periodic_crosscorrelation(base_a, base_b).tolist())
    if not observed <= allowed:
        raise ValueError(
            f"polynomials 0b{poly_a:b}, 0b{poly_b:b} are not a preferred pair: "
            f"cross-correlation values {sorted(observed)} exceed {sorted(allowed)}"
        )

    period = base_a.size
    codes = np.empty((period + 2, period), dtype=np.uint8)
    codes[0] = base_a
    codes[1] = base_b
    for k in range(period):
        codes[2 + k] = base_a ^ np.roll(base_b, -k)
    return codes


def modulate(codes):
    """Modulate codes to two flash durations by xoring the 2x-upsampled bits
    with a double-rate clock (1, 0, 1, 0, ...).

    Every run of ones in the output spans one or two bits, i.e. a short or a
    long flash. The input is recoverable as the odd-indexed output bits.

    Parameters
    ----------
    codes: np.ndarray
        Binary array; modulation applies along the last axis.

    Returns
    -------
    modulated: np.ndarray
        Binary array with the last axis doubled, dtype uint8.
    """
    bits = np.asarray(codes, dtype=np.uint8)
    up = np.repeat(bits, 2, axis=-1)
    clock = np.zeros(up.shape[-1], dtype=np.uint8)
    clock[::2] = 1
    return up ^ clock


def flash_response_samples(fs):
    """Samples per flash kind of the modelled 0.3 s flash response at fs."""
    return int(round(0.3 * fs))


@dataclass(frozen=True)
class LagProducts:
    """Row sums and Gram seeds of structure matrices cut to their first n
    columns, read off the onset trains. Every entry is an integer.

    Row (k, j) of a matrix, its row k * R + j for R response samples, is row
    (k, 0) delayed by j samples. Row (k, j + 1) is thus row (k, j) shifted
    right by one, losing its last column, and a Gram entry follows from the
    one diagonally before it:
    G[(k, i+1), (l, j+1)] = G[(k, i), (l, j)] - S[(k, i), n-1] * S[(l, j), n-1].

    Attributes
    ----------
    sums: np.ndarray
        Row sums, shape (n_codes, 2R).
    heads: np.ndarray
        Zero-lag block rows of each Gram, shape (n_codes, 2, 2, R):
        heads[c, k, l, j] = S_c[(k, 0)] . S_c[(l, j)].
    ends: np.ndarray
        Last column of each matrix, shape (n_codes, 2R).
    """

    sums: np.ndarray
    heads: np.ndarray
    ends: np.ndarray

    def gram(self, weights):
        """The weighted Gram sum_c weights[c] S_c S_c^T, shape (2R, 2R): the
        weighted zero-lag rows and columns, then each later row from the one
        before it by the recurrence, with the weighted products of the last
        columns (one matrix product). Exact for integer weights while the
        entries stay below 2^53."""
        heads = np.tensordot(weights, self.heads, axes=1)
        lags = heads.shape[2]
        ends = (self.ends.T @ (weights[:, None] * self.ends)).reshape(2, lags, 2, lags)
        gram = np.empty((2, lags, 2, lags))
        gram[:, 0] = heads
        gram[:, :, :, 0] = heads.transpose(1, 2, 0)
        for i in range(1, lags):
            np.subtract(gram[:, i - 1, :, :-1], ends[:, i - 1, :, :-1], out=gram[:, i, :, 1:])
        return gram.reshape(2 * lags, 2 * lags)


class StructureMatrices(Sequence):
    """Read-only sequence of structure matrices, held as onset trains.

    `trains` has shape (n_codes, 2, response_samples - 1 + n_samples): code
    c's short (k = 0) and long (k = 1) onset trains, each after
    response_samples - 1 zeros. Item c is a fresh float64 (2 *
    response_samples, n_samples) matrix whose row k * response_samples + j is
    the kind-k train delayed by j samples: a copy, made on each access, of
    code c's part of one lagged view of all the trains, which is built here
    and holds no memory of its own. A slice or an index array gives the
    sequence over those codes' trains.
    """

    def __init__(self, trains, n_samples):
        self.trains = trains.view()
        self.trains.flags.writeable = False
        self.n_samples = n_samples
        # Window w of a train is the train delayed by response_samples - 1 - w.
        self._lagged = np.lib.stride_tricks.sliding_window_view(
            self.trains, n_samples, axis=2)[:, :, ::-1]

    @property
    def shape(self):
        """(n_codes, rows, columns): the shape of the matrices stacked."""
        return len(self), 2 * (self.trains.shape[2] - self.n_samples + 1), self.n_samples

    def __len__(self):
        return self.trains.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            # Always a copy: at response_samples = 1 the view is contiguous.
            return self._lagged[index].copy().reshape(-1, self.n_samples)
        return StructureMatrices(self.trains[index], self.n_samples)

    def lag_products(self, n_samples):
        """:class:`LagProducts` of every matrix cut to its first n_samples
        columns (at most self.n_samples), built from the trains alone: the
        zero-lag Gram rows are one batched product per lag, and no matrix
        is built."""
        lags = self.shape[1] // 2
        onsets = self.trains[:, :, lags - 1:lags - 1 + n_samples]
        heads = np.zeros((len(self), 2, 2, lags))
        for j in range(min(lags, n_samples)):
            heads[..., j] = onsets[:, :, j:] @ onsets[:, :, :n_samples - j].transpose(0, 2, 1)
        # Train sample n - 1 - i is the last column of row (k, i), and the
        # train's sum up to it that row's sum.
        cut = slice(n_samples - 1, n_samples - 1 + lags)
        sums = np.cumsum(self.trains[:, :, :cut.stop], axis=2)[:, :, cut][:, :, ::-1]
        ends = self.trains[:, :, cut][:, :, ::-1]
        return LagProducts(sums.reshape(len(self), -1), heads, ends.reshape(len(self), -1))


def structure_matrices(codes, fs, rate_hz, n_samples, response_samples):
    """Binary structure matrices placing flash responses on a sample grid.

    Each maximal run of ones in a code is one flash: a one-bit run is a short
    flash, a two-bit run a long one. Each kind has an onset train, 1 at the
    onset samples of its flashes, and row k * response_samples + j is the
    train of kind k (0 short, 1 long) delayed by j samples, truncated at the
    matrix edge. Onset samples are round-half-up of onset_bit * fs / rate_hz;
    two onsets that round to one sample mark it once.

    Codes repeat cyclically until n_samples is covered. Runs are found within
    one cycle, so a code that starts and ends with a one shows two flashes at
    each cycle seam, not one merged run.

    Parameters
    ----------
    codes: np.ndarray
        Modulated binary codebook, shape (n_codes, n_bits).
    fs: float
        Sampling rate of the EEG in Hz.
    rate_hz: float
        Presentation rate of the code bits in Hz.
    n_samples: int
        Number of columns (trial samples).
    response_samples: int
        Length of the per-flash response window in samples.

    Returns
    -------
    matrices: StructureMatrices
        A read-only sequence of one float (2 * response_samples, n_samples)
        matrix of 0/1 entries per code. It holds only the codes' onset trains
        and builds a matrix, as a new array, each time an item is read, so a
        caller reads each matrix where it uses it. A run of more than two ones
        raises ValueError.
    """
    n_samples = int(n_samples)
    response_samples = int(response_samples)
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if response_samples < 1 or response_samples > n_samples:
        raise ValueError("response_samples must be in [1, n_samples]")
    codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
    n_codes, n_bits = codes.shape
    bits_needed = int(math.ceil(n_samples * rate_hz / fs))
    cycle_starts = n_bits * np.arange(max(1, int(math.ceil(bits_needed / n_bits))))
    edges = np.diff(codes.astype(np.int8), axis=1, prepend=0, append=0)
    owner, starts = np.nonzero(edges == 1)  # runs in code order, then bit order
    lengths = np.nonzero(edges == -1)[1] - starts
    if np.any(lengths > 2):
        bad = np.argmax(lengths > 2)
        raise ValueError(
            f"run of {lengths[bad]} ones at bit {starts[bad]}: "
            "not a two-duration modulated code"
        )
    onset_bits = (cycle_starts[:, None] + starts).ravel().astype(np.float64)
    # Round half up in the float64 arithmetic of math.floor(x + 0.5), not np.round.
    onsets = np.floor(onset_bits * fs / rate_hz + 0.5).astype(np.int64)
    inside = onsets < n_samples
    # Row 2c + k: code c's kind-k onset train, after response_samples - 1 zeros.
    trains = np.zeros((2 * n_codes, response_samples - 1 + n_samples))
    trains[np.tile(2 * owner + lengths - 1, cycle_starts.size)[inside],
           onsets[inside] + response_samples - 1] = 1.0
    return StructureMatrices(trains.reshape(n_codes, 2, -1), n_samples)


def select_subset(codes, templates, k):
    """Greedily pick k codes whose template responses correlate least.

    Repeatedly drops one member of the currently worst-correlated template
    pair (the member whose remaining correlations are worse) until k codes
    survive; the maximum absolute pairwise correlation never increases.

    Parameters
    ----------
    codes: np.ndarray
        Codebook rows, shape (n_codes, n_bits).
    templates: np.ndarray
        Per-code template responses, shape (n_codes, n_samples).
    k: int
        Number of codes to keep, 2 <= k <= n_codes.

    Returns
    -------
    kept: np.ndarray
        Sorted indices of the retained codes, length k.
    """
    codes = np.asarray(codes)
    templates = np.asarray(templates, dtype=float)
    n = codes.shape[0]
    if templates.shape[0] != n:
        raise ValueError("one template per code required")
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k = {k} exceeds the {n} available codes")

    corr = np.corrcoef(templates)
    corr = np.abs(np.nan_to_num(corr, nan=0.0))
    np.fill_diagonal(corr, 0.0)

    alive = list(range(n))
    while len(alive) > k:
        sub = corr[np.ix_(alive, alive)]
        flat = int(np.argmax(sub))
        i, j = divmod(flat, len(alive))
        first, second = alive[i], alive[j]
        rest = [m for m in alive if m != first and m != second]
        # Drop the pair member that also correlates worst with the rest.
        if corr[first, rest].max() >= corr[second, rest].max():
            alive.remove(first)
        else:
            alive.remove(second)
    return np.array(alive, dtype=int)


def write_codebook(path, codes, rate_hz=None):
    """Write a codebook as text: one code per line of '0'/'1' characters,
    LF-terminated, with an optional leading "# rate_hz=<rate>" header: an
    integral rate without a decimal point, any other in full."""
    codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
    lines = []
    if rate_hz is not None:
        rate_hz = float(rate_hz)
        lines.append(f"# rate_hz={int(rate_hz) if rate_hz.is_integer() else rate_hz!r}")
    for code in codes:
        lines.append("".join("1" if b else "0" for b in code))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_codebook(path):
    """Read a codebook text file written by :func:`write_codebook`.

    Each ValueError it raises names the file, and the line where there is one.

    Returns
    -------
    codebook: Codebook
        Parsed codes; rate_hz falls back to 120 when no header is present.
    """
    rate_hz = 120.0
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text ({err.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key.strip() == "rate_hz":
                try:
                    rate_hz = float(value)
                except ValueError:
                    rate_hz = math.nan
                if not 0 < rate_hz < math.inf:
                    raise ValueError(
                        f"{path}:{lineno}: rate_hz must be a positive number, "
                        f"got {value.strip()!r}"
                    )
            continue
        if set(line) - {"0", "1"}:
            raise ValueError(f"{path}:{lineno}: invalid characters in code line")
        rows.append(np.frombuffer(line.encode(), dtype=np.uint8) - ord("0"))
    if len(rows) < 2:
        raise ValueError(f"{path}: a codebook needs at least two codes")
    lengths = {row.size for row in rows}
    if len(lengths) != 1:
        raise ValueError(f"{path}: code lengths differ: {sorted(lengths)}")
    codes = np.vstack(rows)
    if np.unique(codes, axis=0).shape[0] != codes.shape[0]:
        raise ValueError(f"{path}: duplicate codes in codebook")
    return Codebook(codes=codes, rate_hz=rate_hz)
