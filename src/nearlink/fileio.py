# Small output helpers shared by every export path.
#
# All writers funnel through atomic_write_text so a crashed run never leaves a
# half-written table behind, and all floats funnel through fmt so output bytes
# are reproducible run to run.

from __future__ import annotations

import os
import tempfile

# hashlib maps OpenSSL's libcrypto; the builtin module does not. Its name is
# _sha2 from Python 3.12 on and _sha256 before.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def fmt(x) -> str:
    # repr() of a float is the shortest decimal string that round-trips the
    # exact double: that covers the >= 15 significant digit requirement on
    # numeric exports and keeps bytes stable across runs and platforms.
    if isinstance(x, float):
        return repr(x)
    return str(x)


def atomic_write_text(path, lines) -> None:
    # Write each of the iterable ``lines`` and a newline to a sibling temp
    # file, then rename over the target; rename within a directory is atomic
    # on POSIX. An error, one raised by the lines too, removes the temp file.
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-nearlink-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(line + "\n" for line in lines)
        # mkstemp makes the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sha256_hex(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()
