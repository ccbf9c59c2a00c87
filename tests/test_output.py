import errno
import io
import json
import os
import re

import pytest

from stablegfn import output


class _FullDisk(io.FileIO):
    """A file on a disk with ``room`` bytes free: a write takes what fits, as
    write(2) does, and the next one fails with ENOSPC."""

    def __init__(self, file, mode, room):
        super().__init__(file, mode)
        self.room = room

    def write(self, b):
        if not self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        n = super().write(bytes(b)[:self.room])
        self.room -= n
        return n


def _disk_with_room(monkeypatch, room):
    """Give the writer's ``open`` a disk that takes ``room`` more bytes."""
    def full_open(file, mode, *, newline=None, encoding=None):
        raw = io.BufferedWriter(_FullDisk(file, mode, room))
        return io.TextIOWrapper(raw, encoding=encoding, newline=newline)

    monkeypatch.setattr(output, "open", full_open, raising=False)


def _no_space(path):
    return f"^cannot write {re.escape(str(path))}: {os.strerror(errno.ENOSPC)}$"


def test_write_json_format(tmp_path):
    path = tmp_path / "doc.json"
    output.write_json(str(path), {"b": 1, "a": [1.5, None, "x"]})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "b": 1,\n  "a": [\n    1.5,\n    null,\n    "x"\n  ]\n}\n')


def test_write_json_that_fails_part_way_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text("old\n")
    _disk_with_room(monkeypatch, 10)  # part of the document gets written
    with pytest.raises(OSError, match=_no_space(path)):
        output.write_json(str(path), {"values": list(range(100))})
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["doc.json"]  # no temporary file


def test_write_json_replaces_a_symlink(tmp_path):
    elsewhere = tmp_path / "elsewhere.json"
    elsewhere.write_text("kept\n")
    for target in (elsewhere, tmp_path / "missing" / "x.json"):
        link = tmp_path / "doc.json"
        link.symlink_to(target)
        output.write_json(str(link), [1])
        assert not link.is_symlink() and json.loads(link.read_text()) == [1]
        link.unlink()
    assert elsewhere.read_text() == "kept\n"


def test_append_lines_that_fails_part_way_keeps_the_earlier_lines(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    output.append_lines(str(path), ["a,b\r\n", "1,2\r\n"], "w")
    output.append_lines(str(path), ["3,4\r\n"], "a")
    before = path.read_bytes()
    assert before == b"a,b\r\n1,2\r\n3,4\r\n"
    _disk_with_room(monkeypatch, 3)  # part of a line gets written
    with pytest.raises(OSError, match=_no_space(path)):
        output.append_lines(str(path), ["5,6\r\n", "7,8\r\n"], "a")
    assert path.read_bytes() == before
