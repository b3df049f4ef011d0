"""repro.net: a network front door for the concurrent serving stack.

The paper's algorithms are message-passing protocols, but until this package
every run lived inside one OS process.  ``repro.net`` is the system boundary:

* :mod:`repro.net.protocol` -- a length-prefixed wire protocol with typed
  request/response frames (queries, mutation batches, standing queries,
  stats, errors) and the one sans-IO framer, ``Connection``, that the
  ingress and both clients parse and build frames through;
* :mod:`repro.net.codec` -- the one body encoding: a tagged safe codec over
  a closed value vocabulary (nothing under ``src/repro`` imports pickle);
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

from repro.graph.mutations import (
    AddNode,
    DeleteEdge,
    InsertEdge,
    MutationOp,
    RemoveNode,
)
from repro.net.client import (
    AsyncSessionClient,
    AsyncSubscription,
    SessionClient,
    Subscription,
    connect,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    FrameKind,
    decode,
    encode,
)
from repro.net.server import (
    NetworkSessionServer,
    ThreadedNetworkServer,
    serve_in_thread,
)

__all__ = [
    "AsyncSessionClient",
    "AsyncSubscription",
    "SessionClient",
    "Subscription",
    "connect",
    "NetworkSessionServer",
    "ThreadedNetworkServer",
    "serve_in_thread",
    "FrameKind",
    "encode",
    "decode",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "AddNode",
    "DeleteEdge",
    "InsertEdge",
    "MutationOp",
    "RemoveNode",
]
