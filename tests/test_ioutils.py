"""Tests for the durable atomic-write helper."""

from __future__ import annotations

import os
import stat

import pytest

from repro.ioutils import atomic_write_bytes


def test_writes_and_replaces(tmp_path):
    target = tmp_path / "blob.bin"
    atomic_write_bytes(target, b"old")
    assert atomic_write_bytes(target, b"new") == target
    assert target.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["blob.bin"]


def test_fsyncs_file_then_replaces_then_fsyncs_directory(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(f"fsync-{kind}")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    atomic_write_bytes(tmp_path / "blob.bin", b"payload")
    assert events == ["fsync-file", "replace", "fsync-dir"]


def test_failing_fsync_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "blob.bin"
    target.write_bytes(b"old")

    def fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="disk gone"):
        atomic_write_bytes(target, b"new")
    assert os.listdir(tmp_path) == ["blob.bin"]
    assert target.read_bytes() == b"old"
