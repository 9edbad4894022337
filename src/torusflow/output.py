"""Trace CSV and report JSON writers, and the trace reader."""

from __future__ import annotations

import json

from .config import ConfigError, file_errors
from .integrate import NormTrace
from .spectral import _text_lines

__all__ = [
    "CSV_HEADER",
    "write_trace_csv",
    "read_trace_csv",
    "report_text",
    "write_report_json",
]

CSV_HEADER = "t,a0,a2,a4,a6,mean,dt"


def write_trace_csv(trace: NormTrace, path) -> None:
    """One row per trace sample, %.17g, header exactly CSV_HEADER; the whole
    array is formatted by one % call."""
    fmt = ("%.17g," * 6 + "%.17g\n") * len(trace)
    with open(path, "w", newline="") as fh:
        fh.write(f"{CSV_HEADER}\n")
        fh.write(fmt % tuple(trace.data.ravel().tolist()))


def read_trace_csv(path) -> NormTrace:
    """The trace in a CSV file; a file that cannot be read, is malformed or
    has no row is a ConfigError (a ValueError) naming path."""
    with file_errors(path):
        try:
            with open(path) as fh:
                lines = [ln.strip() for ln in _text_lines(fh)]
            if not lines or lines[0] != CSV_HEADER:
                raise ValueError(f"bad trace header {(lines or [''])[0]!r}, expected {CSV_HEADER!r}")
            if len(lines) == 1:
                raise ValueError("empty trace")
            rows = []
            for ln in lines[1:]:
                parts = ln.split(",")
                if len(parts) != 7:
                    raise ValueError(f"malformed trace row {ln!r}")
                rows.append([float(p) for p in parts])
            return NormTrace.from_rows(rows)
        except ValueError as e:
            raise ConfigError([f"{path}: {e}"]) from None


def report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report_json(report: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(report_text(report))
