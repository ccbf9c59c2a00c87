"""Every file the package writes, through one atomic JSON writer and one line
appender; a fault raises ``OSError("cannot write <path>: <reason>")``."""

import errno
import json
import os
from typing import Iterable


def check_output(path: str) -> None:
    """Refuse, at set-up, an output file that is a directory or whose directory
    is missing or not a directory."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder):
        code = (errno.EISDIR if os.path.isdir(path)
                else errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT)
        raise OSError(f"cannot write {path}: {os.strerror(code)}")


def write_json(path: str, doc: object) -> None:
    """``doc`` as JSON indented by two, keys in the order given, newline-ended,
    in a temporary file beside ``path`` that ``os.replace`` moves onto it (a
    symlink there is replaced): ``path`` holds its old bytes or all of ``doc``."""
    text = json.dumps(doc, indent=2) + "\n"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def append_lines(path: str, lines: Iterable[str], mode: str) -> None:
    """Write ``lines``, each with its own terminator, to a file that ``mode``
    "w" starts or "a" extends; a fault cuts it back to where the call began."""
    start = None
    try:
        with open(path, mode, newline="", encoding="utf-8") as fh:
            start = fh.tell()
            fh.writelines(lines)
    except OSError as exc:
        if start is not None:
            os.truncate(path, start)
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
