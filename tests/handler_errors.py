"""RPC handler errors a clean federation run may show.

A handler that raises anything but a ``NetworkError`` reaches its
caller as an ``RpcError``, itself a ``NetworkError``: the caller reads
a broken handler as a partition and retries it without a trace.  Each
``RpcLayer`` counts those errors in ``handler_errors``, so the suites
that assert a clean ``audit()`` also assert that no error off this
allowlist shows on the WAN or on any campus LAN.
"""

#: ``(method, exception type)`` pairs a clean run may show.
ALLOWED = {
    # core/registry.py NodeRegistry.register refuses a provider that
    # reconnects after an emergency departure before the heartbeat
    # monitor noticed it leave; the agent voids its token and retries
    # a heartbeat interval later.  A known race, left unfixed so far
    # because its fix moves the pinned federation-day event log.
    ("register-node", "RegistrationError"),
}


def unexpected(fed) -> dict:
    """Handler errors off the allowlist, by layer (``"wan"`` or a
    site name), each as ``{(method, error): count}``."""
    layers = {"wan": fed.wan_rpc}
    layers.update((name, handle.platform.rpc)
                  for name, handle in fed.sites.items())
    found = {}
    for name, layer in layers.items():
        errors = {key: count for key, count in layer.handler_errors.items()
                  if key not in ALLOWED}
        if errors:
            found[name] = errors
    return found
