"""Fuzzing of the JSON readers: corpus files, extraction configs, and the CLI
commands that read them.

Every file is written with each of the three line ends a corpus may use (LF,
CRLF, CR).  A reader either returns or raises its typed error naming the file
(and, for a corpus, the line), and the line end never changes the outcome.
"""

import contextlib
import io
import json
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskinfer.cli import main
from taskinfer.core import CorpusFormatError, load_corpus, read_corpus_records
from taskinfer.ingest import ExtractionConfig, ReportError, load_extraction_config

from conftest import corpus_content

LINE_ENDS = (b"\n", b"\r\n", b"\r")

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
# Raw bytes hold no line end, so a file keeps its lines under every line end.
_RAW_LINE = st.binary(max_size=24).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b""))


def _dumps(value) -> bytes:
    """JSON text as UTF-8 bytes; lone surrogates pass through as invalid UTF-8."""
    return json.dumps(value, ensure_ascii=False).encode("utf-8", "surrogatepass")


@st.composite
def _valid_corpus(draw) -> list:
    """A header and a few records that `read_corpus_records` accepts."""
    families = draw(st.dictionaries(
        st.sampled_from("FGH"), st.lists(st.sampled_from(["t1", "t2"]), unique=True),
        min_size=1, max_size=3))
    records = []
    for i in range(draw(st.integers(1, 4))):
        family = draw(st.none() | st.sampled_from(sorted(families)))
        tasks = None if family is None or draw(st.booleans()) else families[family]
        records.append({"id": f"s{i}", "family": family, "tasks": tasks,
                        "attributes": draw(st.lists(st.sampled_from("abcde"),
                                                    min_size=1, max_size=3, unique=True))})
    return [{"families": families}, *records]


@st.composite
def _mutated(draw, objects) -> list:
    """`objects` with a few of them broken, as JSON lines, then maybe a line
    cut short or given stray bytes."""
    objects = [dict(obj) for obj in objects]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(objects) - 1))
        op = draw(st.sampled_from(["drop", "set", "replace", "repeat"]))
        if op == "replace":
            objects[i] = draw(_JSON)
        elif op == "repeat":
            objects.append(objects[i])
        elif isinstance(objects[i], dict) and objects[i]:
            key = draw(st.sampled_from(sorted(objects[i])))
            if op == "drop":
                del objects[i][key]
            else:
                objects[i][key] = draw(_JSON)
    lines = [_dumps(obj) for obj in objects]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:cut] + draw(_RAW_LINE)
    return lines


_CORPUS_LINES = st.one_of(
    st.lists(_JSON.map(_dumps), max_size=4),
    _valid_corpus().flatmap(_mutated),
    st.lists(_RAW_LINE, max_size=4),
)
# The two inputs json.loads cannot build: an integer past the digit limit and
# nesting past the recursion limit.
_TOO_MANY_DIGITS = b'{"families":{"F":' + b"9" * 5000 + b"}}"
_TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


def _outcome(read, path, n_lines: int):
    """What `read(path)` returns, or the message of its error, which must name
    the file and one of its `n_lines` lines."""
    try:
        return read(path)
    except CorpusFormatError as e:
        assert e.path == path and isinstance(e.line, int) and 1 <= e.line <= max(1, n_lines)
        assert str(e).startswith(f"{path}: line {e.line}: ")
        return str(e)


class TestCorpusFiles:
    @given(lines=_CORPUS_LINES, last_end=st.booleans())
    @example(lines=[_TOO_MANY_DIGITS], last_end=True)
    @example(lines=[b'{"families":{}}', _TOO_DEEP], last_end=True)
    @settings(max_examples=150, deadline=None)
    def test_a_file_reads_alike_under_every_line_end(self, lines, last_end,
                                                     tmp_path_factory):
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        seen = []
        for end in LINE_ENDS:
            path.write_bytes(end.join(lines) + (end if last_end and lines else b""))
            # load_corpus names the line of a label error too.
            seen.append([_outcome(read, path, len(lines))
                         for read in (read_corpus_records,
                                      lambda p: corpus_content(load_corpus(p)))])
        assert seen[0] == seen[1] == seen[2]


_CONFIG_OBJECTS = st.dictionaries(
    st.sampled_from([f.name for f in fields(ExtractionConfig)]) | st.text(max_size=6),
    st.booleans() | st.none() | st.integers(-2, 60) | _JSON, max_size=4,
).map(lambda obj: json.dumps(obj, indent=1).encode())
# Config files with LF line ends, which each test replaces by the line end it
# writes: configs, configs cut short or given stray bytes, any JSON, any bytes.
_CONFIG_FILES = st.one_of(
    _CONFIG_OBJECTS,
    st.tuples(_CONFIG_OBJECTS, st.integers(0, 200), _RAW_LINE).map(
        lambda t: t[0][:t[1]] + t[2]),
    _JSON.map(_dumps),
    _RAW_LINE,
)


class TestConfigFiles:
    @given(content=_CONFIG_FILES)
    @example(content=b'{"max_attributes": ' + b"9" * 5000 + b"}")
    @example(content=_TOO_DEEP)
    @settings(max_examples=150, deadline=None)
    def test_a_config_loads_or_names_the_file(self, content, tmp_path_factory):
        path = tmp_path_factory.mktemp("config") / "config.json"
        seen = []
        for end in LINE_ENDS:
            path.write_bytes(content.replace(b"\n", end))
            try:
                seen.append(load_extraction_config(path))
            except ReportError as e:
                assert e.location == str(path) and str(e).startswith(f"{path}: ")
                seen.append(str(e))
        assert seen[0] == seen[1] == seen[2]


def _run(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


class TestCommands:
    @given(lines=_CORPUS_LINES, end=st.sampled_from(LINE_ENDS))
    @settings(max_examples=12, deadline=None)
    def test_predict_exits_1_with_one_error_line(self, lines, end, tmp_path_factory):
        path = tmp_path_factory.mktemp("predict") / "c.jsonl"
        path.write_bytes(b"".join(line + end for line in lines))
        rc, err = _run(["predict", "--method", "nb", "--corpus", str(path), "--in", str(path)])
        assert rc in (0, 1) and "Traceback" not in err
        assert err.count("\n") == rc and (rc == 0 or err.startswith("error: "))
        outcome = _outcome(load_corpus, path, len(lines))
        if isinstance(outcome, str):
            assert err == f"error: {outcome}\n"

    @given(content=_CONFIG_FILES, end=st.sampled_from(LINE_ENDS))
    @settings(max_examples=12, deadline=None)
    def test_ingest_with_a_config_exits_1_with_one_error_line(self, content, end,
                                                              tmp_path_factory):
        work = tmp_path_factory.mktemp("ingest")
        report, config = work / "r.json", work / "config.json"
        report.write_text(json.dumps({"target": {"file": {"sha256": "aa"}},
                                      "behavior": {"summary": {"dll_loaded": ["a.dll"]}}}))
        config.write_bytes(content.replace(b"\n", end))
        rc, err = _run(["ingest", str(report), "--report-config", str(config),
                        "--out", str(work / "out.jsonl")])
        assert rc in (0, 1) and "Traceback" not in err
        assert err.count("\n") == rc and (rc == 0 or err.startswith("error: "))
        try:
            load_extraction_config(config)
        except ReportError as e:
            assert err == f"error: {e}\n"
