"""The block-scanning record loaders against the line-by-line reference.

``oracles`` holds the loaders that parse one line and one pair at a time;
on every input both accept they must build the same matrix, and on every
bad record both reject they must raise the same message.  Each check also
runs with blocks of 1, 7 and 64 bytes, so block edges fall everywhere:
inside numbers, between a number and its colon, and on a line's newline.
"""

import json
import threading
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from bowtie import corpus
from bowtie.corpus import Vocabulary, load_corpus_file, load_kid, load_slmrd_bow
from bowtie.errors import DataError
from synth import token_list

WIDTH = 40
OFFSET = 3
SPACES = [" ", " ", " ", "  ", "\t", " \t", "\v", "\f", "\t\v \f", "\f \t\v\v"]


@pytest.fixture(params=[None, 1, 7, 64], ids=["default", "block1", "block7", "block64"])
def block_bytes(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(corpus, "_BLOCK_BYTES", request.param)
    return request.param


def number(rng, value):
    """``value`` in decimal, now and then with leading zeros."""
    zeros = int(rng.integers(1, 4)) if rng.random() < 0.15 else 0
    return "0" * zeros + str(value)


def gap(rng):
    return SPACES[int(rng.integers(len(SPACES)))]


def pairs_text(rng, width):
    """Unsorted ``index:count`` pairs over distinct indices, or none."""
    k = int(rng.integers(0, 7)) if rng.random() > 0.15 else 0
    indices = rng.choice(width, size=min(k, width), replace=False)
    fields = [f"{number(rng, i)}:{number(rng, int(rng.integers(1, 30)))}" for i in indices]
    text = "".join(gap(rng) + field for field in fields)
    return text.lstrip() if rng.random() < 0.5 else text


def file_text(rng, lines):
    """Join lines with LF or CRLF, sometimes without the final line end."""
    end = "\r\n" if rng.random() < 0.25 else "\n"
    text = "".join(line + end for line in lines)
    return text[: -len(end)] if lines and lines[-1] and rng.random() < 0.3 else text


def canonical_lines(rng, n):
    return [
        f"{number(rng, int(rng.integers(2)))}\t{pairs_text(rng, WIDTH)}"
        + (gap(rng) if rng.random() < 0.2 else "")
        for _ in range(n)
    ]


def slmrd_lines(rng, n):
    ratings = [0, 1, 2, 3, 4, 7, 8, 9, 10]
    return [
        (gap(rng) if rng.random() < 0.2 else "")
        + number(rng, ratings[int(rng.integers(len(ratings)))])
        + gap(rng)
        + pairs_text(rng, WIDTH)
        for _ in range(n)
    ]


def kid_lines(rng, n):
    """Values span the control codes below the offset and every rank."""
    lines = []
    for _ in range(n):
        values = rng.integers(0, WIDTH + OFFSET, size=int(rng.integers(0, 9)))
        body = "".join(gap(rng) + number(rng, int(v)) for v in values)
        lines.append(f"{number(rng, int(rng.integers(2)))}\t{body.lstrip(' ')}")
    return lines


def write_kid(tmp_path, text):
    wi = tmp_path / "wi.json"
    wi.write_text(json.dumps({tok: i + 1 for i, tok in enumerate(token_list(WIDTH))}))
    seq = tmp_path / "seq.tsv"
    seq.write_bytes(text.encode("utf-8"))
    return wi, seq


def loaders(fmt, tmp_path, text):
    """(package loader, reference loader) of one file in format ``fmt``,
    each a call that returns the Corpus."""
    if fmt == "kid":
        wi, seq = write_kid(tmp_path, text)
        return (lambda: load_kid(wi, seq, OFFSET)[1],
                lambda: oracles.load_kid(wi, seq, OFFSET)[1])
    path = tmp_path / f"records.{fmt}"
    path.write_bytes(text.encode("utf-8"))
    if fmt == "slmrd":
        vocab = Vocabulary(token_list(WIDTH))
        return (lambda: load_slmrd_bow(path, vocab),
                lambda: oracles.load_slmrd_bow(path, vocab))
    return (lambda: load_corpus_file(path, width=WIDTH),
            lambda: oracles.load_corpus_file(path, width=WIDTH))


def assert_same_corpus(got, want):
    assert got.matrix.shape == want.matrix.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)


LINES = {"canonical": canonical_lines, "slmrd": slmrd_lines, "kid": kid_lines}

# Records at the edges of the arrays' sizing.  The first of each format
# stores a value after every byte that sizes them, but a kid label's tab, so
# a file of it alone fills them; in the rest, whitespace runs, control codes,
# repeated tokens and empty bodies leave far fewer stored pairs than bytes.
EDGES = {
    "canonical": ["1\t3:1 4:2\t5:1\v6:1\f7:1", "0\t", "1\t\t\v \f3:1\f \t\v\v0:2 \t"],
    "slmrd": ["7 3:1\t5:1\v6:1\f7:1", "7\t\v \f3:1\f \t\v\v0:2", " \f 10\v39:1"],
    "kid": ["1\t5 6\t7\v8\f9", "1\t", "0\t0 1 2 \t\v\f 2 1", "1\t7 7\t\v7 \f 0007",
            "0\t\f\v 9 \t4 9 \v\f0"],
}


def with_edges(rng, lines, fmt):
    """``lines`` with each of the format's edge records put in at random."""
    for line in EDGES[fmt]:
        lines.insert(int(rng.integers(len(lines) + 1)), line)
    return lines


@pytest.mark.parametrize("fmt", sorted(LINES))
def test_valid_files_match_the_reference(tmp_path, block_bytes, fmt):
    for seed in range(25):
        rng = np.random.default_rng([seed, len(fmt)])
        lines = LINES[fmt](rng, int(rng.integers(0, 12)))
        if seed % 2:
            lines = with_edges(rng, lines, fmt)
        text = file_text(rng, lines if seed else EDGES[fmt][:1] * 5)
        package, reference = loaders(fmt, tmp_path, text)
        assert_same_corpus(package(), reference())


# One bad record, placed among good ones; both loaders reject it the same way.
CORRUPT = {
    "canonical": [
        lambda line: "2" + line[1:],
        lambda line: line.replace("\t", " "),
        lambda line: "x" + line,
        lambda line: line + " 3",
        lambda line: line + " x:1",
        lambda line: line + f" {WIDTH}:1",
        lambda line: line + " 7:0",
        lambda line: line + " 5:1 5:2",
        lambda line: "",
        lambda line: line + " 1:2:3",
    ],
    "slmrd": [
        lambda line: "5 " + line,
        lambda line: "11 " + line,
        lambda line: "pos " + line,
        lambda line: line + " 3",
        lambda line: line + " 3:1:2",
        lambda line: line + f" {WIDTH + 4}:1",
        lambda line: line + " 7:0",
        lambda line: line + " 5:1 5:2",
        lambda line: "  ",
        lambda line: line + " 1:2:3",
    ],
    "kid": [
        lambda line: "2" + line[1:],
        lambda line: line.replace("\t", " "),
        lambda line: line + " x",
        lambda line: line + " 4:1",
        lambda line: line + f" {WIDTH + OFFSET}",
        lambda line: "",
    ],
}


@pytest.mark.parametrize("fmt", sorted(CORRUPT))
def test_bad_records_raise_the_reference_message(tmp_path, block_bytes, fmt):
    for seed, corrupt in enumerate(CORRUPT[fmt] * 3):
        rng = np.random.default_rng([seed, 7])
        lines = LINES[fmt](rng, int(rng.integers(1, 10)))
        at = int(rng.integers(len(lines)))
        lines[at] = corrupt(lines[at])
        package, reference = loaders(fmt, tmp_path, file_text(rng, lines))
        with pytest.raises(DataError) as got:
            package()
        with pytest.raises(DataError) as want:
            reference()
        assert str(got.value) == str(want.value)
        assert f"line {at + 1}:" in str(got.value)


def test_bad_record_in_a_late_block_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 4096)
    rng = np.random.default_rng(3)
    lines = canonical_lines(rng, 9000)
    lines[8765] = lines[8765] + f" {WIDTH}:1"
    path = tmp_path / "late.corpus"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert path.stat().st_size > 40 * corpus._BLOCK_BYTES
    with pytest.raises(DataError, match=rf"late\.corpus: line 8766: token index {WIDTH} outside"):
        load_corpus_file(path, width=WIDTH)


def tight(fmt, line):
    """``line`` laid out as the writers lay records out: one separator byte
    between numbers, a tab after a canonical or kid head."""
    if fmt == "slmrd":
        return " ".join(line.split())
    head, _, rest = line.partition("\t")
    return f"{head}\t{' '.join(rest.split())}"


@pytest.mark.parametrize("fmt", sorted(LINES))
def test_the_usual_layout_loads_like_any_other(tmp_path, block_bytes, fmt):
    for seed in range(10):
        rng = np.random.default_rng([seed, 13])
        lines = with_edges(rng, LINES[fmt](rng, int(rng.integers(1, 12))), fmt)
        package, reference = loaders(fmt, tmp_path, "".join(tight(fmt, l) + "\n" for l in lines))
        usual = package()
        assert_same_corpus(usual, reference())
        package, _ = loaders(fmt, tmp_path, file_text(rng, lines))
        assert_same_corpus(usual, package())


@pytest.mark.parametrize("fmt", sorted(CORRUPT))
def test_bad_records_in_the_usual_layout_raise_the_reference_message(tmp_path, fmt):
    for seed, corrupt in enumerate(CORRUPT[fmt]):
        rng = np.random.default_rng([seed, 17])
        lines = [tight(fmt, line) for line in LINES[fmt](rng, 6)]
        lines[seed % 6] = corrupt(lines[seed % 6])
        package, reference = loaders(fmt, tmp_path, "".join(l + "\n" for l in lines))
        with pytest.raises(DataError) as got:
            package()
        with pytest.raises(DataError) as want:
            reference()
        assert str(got.value) == str(want.value)


# Offsets past int64 and values of 18 digits: the reference subtracts them
# as Python integers.  Every value is at most 18 digits, and none lands
# between WIDTH and 10**17 after the offset, so a loader that keeps an
# out-of-range rank fails at once instead of allocating.
FAR_OFFSETS = [0, OFFSET, -1, 10**18 - 1, 10**18, -10**18, 2**63 - 1, 2**63, -(2**63),
               99999999999999999999, -10**20]
FAR_VALUES = [
    "1\t5 6 7\n0\t4 4\n",
    "1\t5\n0\t" + "9" * 18 + "\n",
    "0\t999999999999999990 999999999999999999\n1\t3\n",
    "1\t100000000000000000 2\n",
]


def test_far_offsets_and_values_match_the_reference(tmp_path):
    for text in FAR_VALUES:
        wi, seq = write_kid(tmp_path, text)
        for offset in FAR_OFFSETS:
            try:
                want = oracles.load_kid(wi, seq, offset)[1]
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    load_kid(wi, seq, offset)
                assert str(got.value) == str(exc)
            else:
                assert_same_corpus(load_kid(wi, seq, offset)[1], want)


# ------------------------------------------------------- the scanning pipeline


def scan_spy(monkeypatch, delay=lambda block: 0):
    """Patch the block scanner to sleep ``delay(block)`` seconds first and to
    record (thread, block) of each call, in call order; the second list
    returned gets the number of threads alive at each call."""
    calls, alive, scan = [], [], corpus._scan

    def spied(block, *args, **kwargs):
        calls.append((threading.get_ident(), block))
        alive.append(threading.active_count())
        time.sleep(delay(block))
        return scan(block, *args, **kwargs)

    monkeypatch.setattr(corpus, "_scan", spied)
    return calls, alive


@pytest.mark.parametrize("fmt", sorted(LINES))
def test_blocks_are_scanned_in_file_order_on_the_calling_thread(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 1)  # a block per line
    lines = LINES[fmt](np.random.default_rng(22), 60)
    calls, alive = scan_spy(monkeypatch)
    before = set(threading.enumerate())
    package, reference = loaders(fmt, tmp_path, "".join(f"{line}\n" for line in lines))
    assert_same_corpus(package(), reference())
    me = threading.get_ident()
    assert calls == [(me, f"{line}\n".encode()) for line in lines]
    assert alive == [len(before)] * len(lines)  # no thread started
    assert set(threading.enumerate()) == before  # none left

    calls.clear()
    lines[0] = CORRUPT[fmt][0](lines[0])
    package, _ = loaders(fmt, tmp_path, "".join(f"{line}\n" for line in lines))
    with pytest.raises(DataError, match="line 1:"):
        package()
    assert calls == [(me, f"{lines[0]}\n".encode())]


def test_an_error_in_the_first_block_stops_the_scan(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(22)
    lines = canonical_lines(rng, 60)
    lines[0] = "2" + lines[0][1:]
    calls, _ = scan_spy(monkeypatch)
    path = tmp_path / "early.corpus"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = set(threading.enumerate())
    with pytest.raises(DataError, match="line 1: label 2 not in"):
        load_corpus_file(path, width=WIDTH)
    # no block after block 0 was taken once it was found bad
    assert [block for _, block in calls] == [f"{lines[0]}\n".encode()]
    assert set(threading.enumerate()) == before


def test_a_slow_good_block_does_not_hide_a_later_bad_one(tmp_path, monkeypatch):
    """The first bad block, here block 1 of blocks 1 and 5, is the last one
    scanned, however long the good block 0 takes."""
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(25)
    lines = canonical_lines(rng, 12)
    lines[1], lines[5] = "2" + lines[1][1:], "3" + lines[5][1:]
    first = f"{lines[0]}\n".encode()
    calls, _ = scan_spy(monkeypatch, delay=lambda block: 0.1 if block == first else 0)
    path = tmp_path / "slow.corpus"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2: label 2 not in"):
        load_corpus_file(path, width=WIDTH)
    assert [block for _, block in calls] == [f"{line}\n".encode() for line in lines[:2]]


@pytest.mark.parametrize("fmt", sorted(LINES))
def test_a_file_without_its_final_newline_loads(tmp_path, fmt):
    rng = np.random.default_rng(23)
    package, reference = loaders(fmt, tmp_path, "\n".join(LINES[fmt](rng, 5)))
    assert_same_corpus(package(), reference())


def test_a_line_longer_than_a_block_loads(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", 64)
    rng = np.random.default_rng(24)
    lines = canonical_lines(rng, 6)
    lines[3] = "1\t" + " ".join(f"{i}:{i + 1}" for i in range(WIDTH))
    assert len(lines[3]) > 3 * corpus._BLOCK_BYTES
    package, reference = loaders("canonical", tmp_path, "\n".join(lines) + "\n")
    assert_same_corpus(package(), reference())


def test_numbers_of_eighteen_digits_load(tmp_path):
    path = tmp_path / "big.corpus"
    path.write_text(f"1\t{'9' * 18}:{'9' * 18} 00000000000000003:000000000000000001\n")
    # a width past int32 keeps the indices int64 while they are filled
    wide = load_corpus_file(path, width=10**18)
    assert wide.matrix.indices.dtype == wide.matrix.indptr.dtype == np.int64
    assert wide.matrix.indices.tolist() == [3, 10**18 - 1]
    assert wide.matrix.data.tolist() == [1, 10**18 - 1]


# Lines the reference accepts, which the package rejects by design; the
# README lists them under the accepted grammar.
NOW_REJECTED = [
    ("canonical", "+1\t3:1", "malformed label '+1'"),
    ("canonical", " 1\t3:1", "malformed label ' 1'"),
    ("canonical", "1 \t3:1", "malformed label '1 '"),
    ("canonical", "1\t+3:1", "malformed pair '+3:1'"),
    ("canonical", "1\t1_0:1", "malformed pair '1_0:1'"),
    ("canonical", "1\t٣:1", "malformed pair '٣:1'"),
    ("canonical", "1\t3:1\xa04:1", "malformed pair '3:1\\xa04:1'"),
    ("canonical", "1\t3:1\x1c4:1", "malformed pair '3:1\\x1c4:1'"),
    ("canonical", "1\t3:1\x854:1", "malformed pair '3:1\\x854:1'"),
    ("slmrd", "10\u20033:1", "malformed rating '10\\u20033:1'"),
    ("canonical", "1\t3:1\r0\t4:1", "malformed pair '3:1\\r0'"),
    ("canonical", "1\t" + "0" * 19 + "3:1", "malformed pair '" + "0" * 19 + "3:1'"),
    ("slmrd", "+10 3:1", "malformed rating '+10'"),
    ("slmrd", "10 3:１", "malformed pair '3:１'"),
    ("kid", "1\t4 -5", "malformed value '-5'"),
    ("kid", " 1\t4", "missing label"),
]


@pytest.mark.parametrize("fmt,line,message", NOW_REJECTED)
def test_inputs_outside_the_grammar_are_rejected(tmp_path, fmt, line, message):
    package, reference = loaders(fmt, tmp_path, line + "\n")
    assert len(reference()) >= 1
    with pytest.raises(DataError) as err:
        package()
    assert str(err.value).endswith(f"line 1: {message}")


@pytest.mark.parametrize("fmt,line,message", [
    ("canonical", "-1\t3:1", "malformed label '-1'"),
    ("canonical", "1\t-3:1", "malformed pair '-3:1'"),
    ("canonical", "1\t3:-1", "malformed pair '3:-1'"),
])
def test_negative_numbers_are_malformed_not_out_of_range(tmp_path, fmt, line, message):
    package, reference = loaders(fmt, tmp_path, line + "\n")
    with pytest.raises(DataError, match="not in|outside|must be >= 1"):
        reference()
    with pytest.raises(DataError) as err:
        package()
    assert str(err.value).endswith(f"line 1: {message}")


def test_bytes_that_are_not_utf8_are_a_data_error(tmp_path):
    path = tmp_path / "latin1.corpus"
    path.write_bytes(b"1\t3:1\n0\t4:1 caf\xe9\n")
    with pytest.raises(UnicodeDecodeError):
        oracles.load_corpus_file(path, width=WIDTH)
    with pytest.raises(DataError, match=r"line 2: malformed pair 'caf\\\\xe9'"):
        load_corpus_file(path, width=WIDTH)


def peak_load_bytes(load):
    """The tracemalloc peak while ``load()`` runs, and what it returned."""
    tracemalloc.start()
    try:
        loaded = load()
        return tracemalloc.get_traced_memory()[1], loaded
    finally:
        tracemalloc.stop()


def result_bytes(loaded):
    m = loaded.matrix
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + loaded.labels.nbytes


def test_load_memory_is_bounded_by_the_result_and_one_block(tmp_path, monkeypatch):
    """The peak is the file's bytes, the result's arrays and a few blocks' work."""
    rng = np.random.default_rng(5)
    width = 5000
    with open(tmp_path / "many.corpus", "w", encoding="utf-8") as fh:
        for _ in range(6000):
            idx = np.sort(rng.choice(width, size=60, replace=False))
            cnt = rng.integers(1, 9, size=60)
            fh.write(f"{int(rng.integers(2))}\t")
            fh.write(" ".join(f"{i}:{c}" for i, c in zip(idx.tolist(), cnt.tolist())))
            fh.write("\n")
    path = tmp_path / "many.corpus"
    size = path.stat().st_size

    peak, loaded = peak_load_bytes(lambda: load_corpus_file(path, width=width))
    m, result = loaded.matrix, result_bytes(loaded)
    # indices read as int64, then copied down to int32, would add 2.9 MB (22 blocks)
    bound = size + result + 30 * corpus._BLOCK_BYTES
    assert size > 4 * corpus._BLOCK_BYTES
    assert peak <= bound, peak - size - result
    assert m.indices.dtype == m.indptr.dtype == np.int32
    # the bound is tight enough that parsing the file as one block breaks it
    monkeypatch.setattr(corpus, "_BLOCK_BYTES", size + 1)
    assert peak_load_bytes(lambda: load_corpus_file(path, width=width))[0] > bound


def test_kid_load_memory_is_bounded_by_the_result_and_a_few_blocks(tmp_path):
    """A kid file's values are placed once, in arrays sized by their count:
    holding each block's pairs until they are joined would add 6 MB here."""
    rng = np.random.default_rng(6)
    width = 5000
    wi = tmp_path / "wi.json"
    wi.write_text(json.dumps({tok: i + 1 for i, tok in enumerate(token_list(width))}))
    seq = tmp_path / "seq.tsv"
    with open(seq, "w", encoding="utf-8") as fh:
        for _ in range(6000):  # 60 distinct tokens a review, none a control code
            values = rng.choice(width, size=60, replace=False) + OFFSET
            fh.write(f"{int(rng.integers(2))}\t{' '.join(map(str, values.tolist()))}\n")
    size = seq.stat().st_size

    peak, (_, loaded) = peak_load_bytes(lambda: load_kid(wi, seq, OFFSET))
    result = result_bytes(loaded)
    assert size > 12 * corpus._BLOCK_BYTES
    assert loaded.nnz == 6000 * 60
    assert peak <= size + result + 30 * corpus._BLOCK_BYTES, peak - size - result
