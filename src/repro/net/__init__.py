"""repro.net: a network front door for the concurrent serving stack.

The paper's algorithms are message-passing protocols, but until this package
every run lived inside one OS process.  ``repro.net`` is the system boundary:

* :mod:`repro.net.protocol` -- a length-prefixed wire protocol with typed
  request/response frames (queries, mutation batches, standing queries,
  stats, errors) and the one sans-IO framer, ``Connection``, that the
  ingress, both clients and the TCP worker transport of
  :mod:`repro.runtime.transport` all parse and build frames through;
* :mod:`repro.net.codec` -- the one body encoding: a tagged safe codec over
  a closed value vocabulary.  Nothing under ``repro.net`` imports pickle;
  the worker transport's ``OBJ`` bodies are opaque bytes here and are
  unpickled only in ``SocketTransport.recv``, after the token check;
* :mod:`repro.net.server` -- an asyncio ingress
  (:class:`NetworkSessionServer`) that accepts many client connections and
  feeds :meth:`ConcurrentSessionServer.submit`, preserving the
  snapshot/stamp contract end-to-end, with graceful shutdown that drains
  in-flight work;
* :mod:`repro.net.client` -- a blocking :class:`SessionClient` and a
  pipelining :class:`AsyncSessionClient` sharing one request core; build
  either through :func:`connect`; standing queries through
  :meth:`subscribe`.

``examples/network_query_server.py`` runs the full topology on localhost;
``examples/subscription_server.py`` demonstrates standing queries.
"""

# Exports resolve lazily (PEP 562): the worker transport imports
# ``repro.net.protocol`` while ``repro.session`` is still initializing, and
# an eager ``from repro.net.client import ...`` here would re-enter the
# half-built ``repro.session.concurrent`` module.
_EXPORTS = {
    "AsyncSessionClient": "repro.net.client",
    "AsyncSubscription": "repro.net.client",
    "SessionClient": "repro.net.client",
    "Subscription": "repro.net.client",
    "connect": "repro.net.client",
    "NetworkSessionServer": "repro.net.server",
    "ThreadedNetworkServer": "repro.net.server",
    "serve_in_thread": "repro.net.server",
    "FrameKind": "repro.net.protocol",
    "encode": "repro.net.protocol",
    "decode": "repro.net.protocol",
    "PROTOCOL_VERSION": "repro.net.protocol",
    "DEFAULT_MAX_FRAME": "repro.net.protocol",
    "AddNode": "repro.graph.mutations",
    "DeleteEdge": "repro.graph.mutations",
    "InsertEdge": "repro.graph.mutations",
    "MutationOp": "repro.graph.mutations",
    "RemoveNode": "repro.graph.mutations",
}


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = list(_EXPORTS)
