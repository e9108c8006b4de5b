"""Subprocess entry for process-per-ring execution.

Mirrors ``repro.campaign.worker``: a tiny top-level function importable
under both ``fork`` and ``spawn`` start methods.  Unlike a campaign point
(one-shot, pure), a shard is a long-lived conversation — the parent drives
it over a duplex pipe with a small command protocol:

* ``("advance", t, collect)`` -> ``("ok", outgoing-frame dicts)`` — run
  the engine to ``t``; when ``collect`` (a barrier, not a partial tail)
  also drain the gateway buffers;
* ``("inject", frames)`` -> ``("ok", None)`` — accept crossing frames at
  the barrier the shard just reached;
* ``("report", bool)``   -> ``("ok", report dict)``;
* ``("close",)``         -> child exits.

Any exception is reported as ``("error", traceback)`` and the child exits;
the parent surfaces it.  All payloads are JSON-safe plain values, so the
sharded data path is exactly the serial one plus a pickle round trip of
already-canonical dicts.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict

__all__ = ["_shard_entry"]


def _shard_entry(conn, ring: int, topo_dict: Dict[str, Any],
                 trace: bool, observe: bool) -> None:
    try:
        from repro.fabric.shard import RingShard
        from repro.fabric.topology import topology_from_dict

        shard = RingShard(topology_from_dict(topo_dict), ring,
                          trace=trace, observe=observe)
        conn.send(("ok", {"sat_bound": shard.sat_bound()}))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "advance":
                shard.advance(cmd[1])
                conn.send(("ok",
                           shard.collect_outgoing(cmd[1]) if cmd[2] else []))
            elif op == "inject":
                shard.inject(cmd[1], cmd[2])
                conn.send(("ok", None))
            elif op == "report":
                conn.send(("ok", shard.report(include_trace=cmd[1])))
            elif op == "close":
                return
            else:
                conn.send(("error", f"unknown shard command {op!r}"))
                return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()
