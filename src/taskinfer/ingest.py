"""Sandbox report ingestion: behavior JSON in, attribute sets out.

Accepts Cuckoo-style dynamic-analysis reports (one JSON document per run)
and flattens the behavioral summary into the four attribute kinds:

    usesDLL:<name>    loaded library (basename, normalized)
    regAct:<key>      touched registry key (normalized, hive shortened)
    fileAct:<path>    touched file path (normalized)
    proAct            the run spawned or manipulated processes

Accepted report fields (everything else is ignored):

    target.file.sha256 | target.file.md5 | info.id     sample identity
    behavior.summary.dll_loaded                        -> usesDLL
    behavior.summary.regkey_opened / regkey_read
        / regkey_written / regkey_deleted              -> regAct
    behavior.summary.file_created / file_opened / file_read
        / file_written / file_deleted / file_moved     -> fileAct
    behavior.processes (non-empty list)                -> proAct
    static.pe_imports[].dll                            -> usesDLL
                                                       (only when the static
                                                        toggle is on)

Path normalization makes attribute tokens comparable across runs: separators
unified to backslashes, case folded, per-user profile directories collapsed
to <user>, braced GUIDs to <guid>, cache-style tmpXXXX.tmp names to
tmp<r>.tmp.  Every rule is idempotent, so normalizing twice is a no-op.
Registry keys additionally get their hive shortened (hklm, hkcu, hkcr, hku,
hkcc).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable

from .core import Sample


class ReportError(ValueError):
    """A report could not be parsed or yielded no attributes."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


@dataclass(frozen=True)
class ExtractionConfig:
    """Which attribute kinds to extract and which normalizations to apply.

    The JSON form (for `taskinfer ingest --report-config`) uses the kind
    names as keys: {"usesDLL": true, "regAct": true, "fileAct": true,
    "proAct": true, "static": false, "fold_case": true, "scrub_user_dirs":
    true, "scrub_guids": true, "scrub_temp_names": true, "max_attributes":
    null}.
    """

    use_dlls: bool = True
    use_registry: bool = True
    use_files: bool = True
    use_process: bool = True
    use_static: bool = False
    fold_case: bool = True
    scrub_user_dirs: bool = True
    scrub_guids: bool = True
    scrub_temp_names: bool = True
    max_attributes: int | None = None

    def __post_init__(self):
        if not (self.use_dlls or self.use_registry or self.use_files
                or self.use_process):
            raise ValueError("at least one attribute kind must be enabled")
        if self.max_attributes is not None and self.max_attributes < 1:
            raise ValueError("max_attributes must be >= 1 when set")

    _JSON_KEYS = (
        ("usesDLL", "use_dlls"),
        ("regAct", "use_registry"),
        ("fileAct", "use_files"),
        ("proAct", "use_process"),
        ("static", "use_static"),
        ("fold_case", "fold_case"),
        ("scrub_user_dirs", "scrub_user_dirs"),
        ("scrub_guids", "scrub_guids"),
        ("scrub_temp_names", "scrub_temp_names"),
        ("max_attributes", "max_attributes"),
    )

    @classmethod
    def from_dict(cls, obj: dict) -> "ExtractionConfig":
        known = {json_key: attr for json_key, attr in cls._JSON_KEYS}
        unknown = sorted(set(obj) - set(known))
        if unknown:
            raise ValueError(f"unknown extraction config keys: {unknown}")
        kwargs = {known[k]: v for k, v in obj.items()}
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {json_key: getattr(self, attr) for json_key, attr in self._JSON_KEYS}


_GUID_RE = re.compile(
    r"\{[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}\}",
    re.IGNORECASE,
)
_TMP_RE = re.compile(r"tmp[0-9a-f]{2,}\.tmp", re.IGNORECASE)
_USER_RES = (
    re.compile(r"(?<=\\users\\)(?!<user>(?:\\|$))[^\\]+", re.IGNORECASE),
    re.compile(r"(?<=\\documents and settings\\)(?!<user>(?:\\|$))[^\\]+",
               re.IGNORECASE),
)

_HIVES = {
    "hkey_local_machine": "hklm",
    "hkey_current_user": "hkcu",
    "hkey_classes_root": "hkcr",
    "hkey_users": "hku",
    "hkey_current_config": "hkcc",
}


def normalize_path(raw: str, config: ExtractionConfig | None = None) -> str:
    """Normalize a filesystem path into a stable attribute value."""
    config = config or ExtractionConfig()
    s = raw.replace("/", "\\").strip()
    if config.fold_case:
        s = s.lower()
    if config.scrub_user_dirs:
        for pattern in _USER_RES:
            s = pattern.sub("<user>", s)
    if config.scrub_guids:
        s = _GUID_RE.sub("<guid>", s)
    if config.scrub_temp_names:
        s = _TMP_RE.sub("tmp<r>.tmp", s)
    return s


def _normalize_dll(raw: str, config: ExtractionConfig) -> str:
    path = normalize_path(raw, config)
    return path.rsplit("\\", 1)[-1]


def _normalize_regkey(raw: str, config: ExtractionConfig) -> str:
    key = normalize_path(raw, config)
    head, sep, rest = key.partition("\\")
    short = _HIVES.get(head.lower())
    if short:
        return short + sep + rest
    return key


_REG_FIELDS = ("regkey_opened", "regkey_read", "regkey_written", "regkey_deleted")
_FILE_FIELDS = ("file_created", "file_opened", "file_read", "file_written",
                "file_deleted", "file_moved")


def _string_entries(summary: dict, field_name: str) -> Iterable:
    entries = summary.get(field_name, [])
    if not isinstance(entries, list):
        return
    for entry in entries:
        if isinstance(entry, str) and entry.strip():
            yield entry


def _section(parent: dict, path: str, location: str) -> dict:
    """The member of `parent` named by the last key of dotted `path`.

    Absent, null or empty members read as {}; any other non-object raises a
    ReportError naming `path`.
    """
    value = parent.get(path.rsplit(".", 1)[-1]) or {}
    if not isinstance(value, dict):
        raise ReportError(f"{path} is not a JSON object", location)
    return value


def parse_report(data, config: ExtractionConfig | None = None,
                 location: str = "") -> Sample:
    """Parse one sandbox report into an unlabeled Sample.

    `data` is the report JSON as bytes or str; `location` (usually the file
    name) prefixes error messages.  Raises ReportError for malformed
    documents, a section of the wrong JSON type, a non-string hash, missing
    identity, missing behavior section, or an empty extraction result.
    """
    config = config or ExtractionConfig()
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ReportError(
            f"malformed report JSON: {e.msg} (line {e.lineno}, column {e.colno})",
            location,
        ) from e
    if not isinstance(doc, dict):
        raise ReportError("report is not a JSON object", location)

    target_file = _section(_section(doc, "target", location), "target.file", location)
    info = _section(doc, "info", location)
    for key in ("sha256", "md5"):
        if target_file.get(key) is not None and not isinstance(target_file[key], str):
            raise ReportError(f"target.file.{key} is not a string", location)
    sample_id = target_file.get("sha256") or target_file.get("md5")
    if not sample_id and info.get("id") is not None:
        sample_id = str(info["id"])
    if not sample_id:
        raise ReportError(
            "no sample identity (target.file.sha256/md5 or info.id)", location
        )

    behavior = doc.get("behavior")
    if not isinstance(behavior, dict) or not behavior:
        raise ReportError("missing behavior section; no attributes", location)
    summary = _section(behavior, "behavior.summary", location)

    tokens: set = set()
    if config.use_dlls:
        for entry in _string_entries(summary, "dll_loaded"):
            name = _normalize_dll(entry, config)
            if name:
                tokens.add("usesDLL:" + name)
    if config.use_registry:
        for field_name in _REG_FIELDS:
            for entry in _string_entries(summary, field_name):
                tokens.add("regAct:" + _normalize_regkey(entry, config))
    if config.use_files:
        for field_name in _FILE_FIELDS:
            for entry in _string_entries(summary, field_name):
                tokens.add("fileAct:" + normalize_path(entry, config))
    if config.use_process:
        processes = behavior.get("processes")
        if isinstance(processes, list) and processes:
            tokens.add("proAct")
    if config.use_static:
        imports = _section(doc, "static", location).get("pe_imports") or []
        if isinstance(imports, list):
            for imp in imports:
                if isinstance(imp, dict) and isinstance(imp.get("dll"), str):
                    name = _normalize_dll(imp["dll"], config)
                    if name:
                        tokens.add("usesDLL:" + name)

    if not tokens:
        raise ReportError("no attributes extracted from behavior", location)
    if config.max_attributes is not None and len(tokens) > config.max_attributes:
        tokens = set(sorted(tokens)[: config.max_attributes])
    return Sample(id=sample_id, attribs=frozenset(tokens), family=None, tasks=None)


def load_extraction_config(path) -> ExtractionConfig:
    """Read an ExtractionConfig from its JSON file form."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ReportError(f"malformed config JSON: {e.msg}", str(path)) from e
    if not isinstance(obj, dict):
        raise ReportError("extraction config must be a JSON object", str(path))
    return ExtractionConfig.from_dict(obj)
