"""The distributed object runtime: nuclei, the registry and invocation.

Each network host can run a :class:`Nucleus` (the ODP term for the node's
basic engineering support).  One nucleus additionally hosts the
:class:`Registry`, a name service mapping object ids to their current node.
Invocation is location-transparent: clients consult a local cache, fall
back to the registry, and chase one forwarding miss after a migration.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import NodeError, PlacementError
from repro.faults.policies import CircuitOpenError, FaultPolicies
from repro.net.network import Host, Network
from repro.net.transport import RemoteException, RpcEndpoint, RpcError
from repro.node.objects import Capsule, Cluster, EngineeringObject
from repro.obs.metrics import BoundCounterCache
from repro.sim import Event

RPC_PORT = 10


class Registry:
    """Object-id → node-name directory, hosted by one nucleus."""

    def __init__(self) -> None:
        self.locations: Dict[str, str] = {}

    def register(self, oid: str, node_name: str) -> None:
        self.locations[oid] = node_name

    def unregister(self, oid: str) -> None:
        self.locations.pop(oid, None)

    def lookup(self, oid: str) -> Optional[str]:
        return self.locations.get(oid)


class Nucleus:
    """Per-node engineering support: capsules, invocation, migration."""

    def __init__(self, host: Host, registry_node: str,
                 registry: Optional[Registry] = None,
                 policies: Optional[FaultPolicies] = None) -> None:
        self.host = host
        self.env = host.env
        self.node_name = host.name
        self.registry_node = registry_node
        #: Non-None only on the registry node itself.
        self.registry = registry
        #: Optional recovery policies for this nucleus's outgoing RPC
        #: (retry with backoff, deadline budget, circuit breaker).
        #: ``None`` keeps the invoke path byte-identical.
        self.policies = policies
        self.capsules: Dict[str, Capsule] = {}
        self._location_cache: Dict[str, str] = {}
        # Bound metric handles for the per-invocation instruments.
        metrics = self.env.ctx.metrics
        self._invocation_counters = BoundCounterCache(
            metrics, "node.invocations", "kind", node=host.name)
        self._op_counters = BoundCounterCache(
            metrics, "node.op.invocations", "op", node=host.name)
        # Bound on the first successful remote call.
        self._rpc_latency = None
        self.rpc = RpcEndpoint(host, port=RPC_PORT, policies=policies)
        self.rpc.register("invoke", self._handle_invoke)
        self.rpc.register("migrate_in", self._handle_migrate_in)
        self.rpc.register("whereis", self._handle_whereis)
        self.rpc.register("register_object", self._handle_register)

    # -- capsule / object management ----------------------------------------

    def create_capsule(self, name: str = "") -> Capsule:
        """Create a capsule on this node."""
        capsule = Capsule(name)
        capsule.node_name = self.node_name
        self.capsules[capsule.capsule_id] = capsule
        return capsule

    def create_object(self, capsule: Capsule, name: str,
                      cluster: Optional[Cluster] = None,
                      state: Optional[Dict[str, Any]] = None,
                      state_size: int = 1024) -> EngineeringObject:
        """Create an object (and cluster if needed) and register it."""
        if capsule.capsule_id not in self.capsules:
            raise NodeError("capsule {} is not on node {}".format(
                capsule.name, self.node_name))
        if cluster is None:
            cluster = Cluster(name + "-cluster")
            capsule.add_cluster(cluster)
        elif cluster.capsule is not capsule:
            raise NodeError("cluster {} is not in capsule {}".format(
                cluster.name, capsule.name))
        obj = EngineeringObject(name, state=state, state_size=state_size)
        cluster.add(obj)
        self._register_location(obj.oid, self.node_name)
        return obj

    def find_object(self, oid: str) -> Optional[EngineeringObject]:
        """Locate an object in any local capsule."""
        for capsule in self.capsules.values():
            obj = capsule.find_object(oid)
            if obj is not None:
                return obj
        return None

    # -- invocation ----------------------------------------------------------

    def invoke(self, oid: str, op: str, args: Any = None,
               timeout: float = 10.0, parent: Any = None) -> Event:
        """Invoke ``op`` on the (possibly remote) object ``oid``.

        Location transparency: local objects short-circuit the network; for
        remote ones the cached location is tried first, then the registry,
        chasing at most two stale-location misses (e.g. mid-migration).

        ``parent`` optionally names the caller's span (or span context) so
        application code can root the invocation's trace under its own
        activity (e.g. a think-time span).
        """
        done = self.env.event()
        self.env.process(
            self._invoke_proc(oid, op, args, timeout, done, parent))
        return done

    def _invoke_proc(self, oid: str, op: str, args: Any,
                     timeout: float, done: Event, parent: Any = None):
        start = self.env.now
        span = self.env.ctx.tracer.start_span(
            "node.invoke", at=start, parent=parent,
            node=self.node_name, oid=oid, op=op)
        self._op_counters.get(op).add()
        local = self.find_object(oid)
        if local is not None:
            span.set_attribute("target", "local")
            self._invocation_counters.get("local").add()
            try:
                result = local.invoke_local(self.node_name, op, args)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    result = yield self.env.process(result)
                span.finish(at=self.env.now)
                done.succeed(result)
            except Exception as error:  # noqa: BLE001 - surfaced to caller
                span.set_status("error")
                span.finish(at=self.env.now)
                done.fail(error if isinstance(error, NodeError)
                          else NodeError(str(error)))
            return
        span.set_attribute("target", "remote")
        self._invocation_counters.get("remote").add()
        attempts = 0
        while attempts < 3:
            location = self._location_cache.get(oid)
            if location is None:
                location = yield from self._whereis(oid, timeout, span)
                if location is None:
                    span.set_status("error")
                    span.finish(at=self.env.now)
                    done.fail(NodeError("unknown object " + oid))
                    return
                self._location_cache[oid] = location
            try:
                result = yield self.rpc.call(
                    location, "invoke",
                    {"oid": oid, "op": op, "args": args}, timeout=timeout,
                    parent=span)
            except RemoteException as error:
                if "object-not-here" in str(error):
                    span.add_event("stale-location", at=self.env.now,
                                   location=location)
                    self._location_cache.pop(oid, None)
                    attempts += 1
                    continue
                span.set_status("error")
                span.finish(at=self.env.now)
                done.fail(NodeError(str(error)))
                return
            except CircuitOpenError as error:
                # Fail fast, preserving the distinct type so callers can
                # tell "refused locally" from "tried and timed out".
                span.set_status("error")
                span.set_attribute("error", "circuit-open")
                span.finish(at=self.env.now)
                done.fail(error)
                return
            except RpcError as error:
                span.set_status("error")
                span.finish(at=self.env.now)
                done.fail(NodeError(str(error)))
                return
            span.finish(at=self.env.now)
            if self._rpc_latency is None:
                self._rpc_latency = self.env.ctx.metrics.bind_histogram(
                    "rpc.latency", node=self.node_name)
            self._rpc_latency.record(self.env.now - start)
            done.succeed(result)
            return
        span.set_status("error")
        span.finish(at=self.env.now)
        done.fail(NodeError(
            "could not locate object {} after migration chase".format(oid)))

    def _whereis(self, oid: str, timeout: float, parent: Any = None):
        if self.registry is not None:
            return self.registry.lookup(oid)
        span = self.env.ctx.tracer.start_span(
            "node.whereis", at=self.env.now, parent=parent,
            node=self.node_name, oid=oid)
        try:
            location = yield self.rpc.call(
                self.registry_node, "whereis", oid, timeout=timeout,
                parent=span)
        except (RpcError, RemoteException):
            span.set_status("error")
            span.finish(at=self.env.now)
            return None
        span.finish(at=self.env.now)
        return location

    # -- migration -----------------------------------------------------------

    def migrate_cluster(self, cluster: Cluster, target_node: str,
                        timeout: float = 30.0) -> Event:
        """Move a cluster (all its objects) to another node.

        The event fires when the target has installed the cluster and the
        registry has been updated.  Transfer time is governed by the
        cluster's serialised size crossing the network.
        """
        done = self.env.event()
        self.env.process(
            self._migrate_proc(cluster, target_node, timeout, done))
        return done

    def _migrate_proc(self, cluster: Cluster, target_node: str,
                      timeout: float, done: Event):
        capsule = cluster.capsule
        if capsule is None or capsule.node_name != self.node_name:
            done.fail(PlacementError(
                "cluster {} is not on node {}".format(
                    cluster.name, self.node_name)))
            return
        size = cluster.state_size
        span = self.env.ctx.tracer.start_span(
            "node.migrate", at=self.env.now, node=self.node_name,
            cluster=cluster.name, target=target_node, bytes=size)
        capsule.remove_cluster(cluster.cluster_id)
        snapshot = {
            "name": cluster.name,
            "objects": [
                {"oid": obj.oid, "name": obj.name, "state": obj.state,
                 "state_size": obj.state_size,
                 "operations": obj._operations}
                for obj in cluster.objects.values()
            ],
        }
        try:
            yield self.rpc.call(target_node, "migrate_in", snapshot,
                                timeout=timeout, parent=span)
        except (RpcError, RemoteException) as error:
            # Roll back: reinstall locally.
            capsule.add_cluster(cluster)
            span.set_status("error")
            span.finish(at=self.env.now)
            done.fail(PlacementError("migration failed: {}".format(error)))
            return
        # Charge the bulk state transfer (snapshot payloads are modelled
        # as zero-size control packets; the state crosses as one burst).
        yield from self._charge_transfer(target_node, size)
        for obj in cluster.objects.values():
            yield from self._update_registry(obj.oid, target_node)
        span.finish(at=self.env.now)
        self.env.ctx.metrics.counter("node.migrations",
                                     node=self.node_name).add()
        done.succeed(target_node)

    def _charge_transfer(self, target_node: str, size: int):
        path = self.host.network.topology.path(self.node_name, target_node)
        for link in path:
            yield self.env.timeout(link.transmission_delay(size))

    def _register_location(self, oid: str, node_name: str) -> None:
        if self.registry is not None:
            self.registry.register(oid, node_name)
        else:
            self.rpc.call(self.registry_node, "register_object",
                          {"oid": oid, "node": node_name}).defuse()

    def _update_registry(self, oid: str, node_name: str):
        if self.registry is not None:
            self.registry.register(oid, node_name)
        else:
            yield self.rpc.call(self.registry_node, "register_object",
                                {"oid": oid, "node": node_name})

    # -- RPC handlers ----------------------------------------------------------

    def _handle_invoke(self, caller: str, request: Dict[str, Any]):
        obj = self.find_object(request["oid"])
        if obj is None:
            raise NodeError("object-not-here: " + request["oid"])
        result = obj.invoke_local(caller, request["op"], request["args"])
        if hasattr(result, "send") and hasattr(result, "throw"):
            final = yield self.env.process(result)
            return final
        return result

    def _handle_migrate_in(self, caller: str, snapshot: Dict[str, Any]):
        capsule = self._default_capsule()
        cluster = Cluster(snapshot["name"])
        capsule.add_cluster(cluster)
        for spec in snapshot["objects"]:
            obj = EngineeringObject(spec["name"], state=spec["state"],
                                    state_size=spec["state_size"])
            obj.oid = spec["oid"]
            obj._operations = spec["operations"]
            cluster.add(obj)
        return cluster.cluster_id

    def _handle_whereis(self, caller: str, oid: str):
        if self.registry is None:
            raise NodeError("this node does not host the registry")
        location = self.registry.lookup(oid)
        if location is None:
            raise NodeError("unknown object " + oid)
        return location

    def _handle_register(self, caller: str, request: Dict[str, Any]):
        if self.registry is None:
            raise NodeError("this node does not host the registry")
        self.registry.register(request["oid"], request["node"])
        return True

    def _default_capsule(self) -> Capsule:
        if not self.capsules:
            return self.create_capsule("default")
        return next(iter(self.capsules.values()))


class ODPRuntime:
    """Convenience: a whole network of nuclei with one registry."""

    def __init__(self, network: Network, registry_node: str,
                 policies: Optional[FaultPolicies] = None) -> None:
        self.network = network
        self.env = network.env
        self.registry = Registry()
        self.registry_node = registry_node
        #: Shared recovery policies handed to every nucleus (a shared
        #: circuit breaker aggregates failure history across callers).
        self.policies = policies
        self.nuclei: Dict[str, Nucleus] = {}
        self.nucleus(registry_node)

    def nucleus(self, node_name: str) -> Nucleus:
        """Start (or fetch) the nucleus for a node."""
        if node_name not in self.nuclei:
            host = self.network.host(node_name)
            registry = self.registry if node_name == self.registry_node \
                else None
            self.nuclei[node_name] = Nucleus(
                host, self.registry_node, registry=registry,
                policies=self.policies)
        return self.nuclei[node_name]

    def locate(self, oid: str) -> Optional[str]:
        """Authoritative location of an object (registry view)."""
        return self.registry.lookup(oid)

    def all_objects(self) -> List[EngineeringObject]:
        return [obj for nucleus in self.nuclei.values()
                for capsule in nucleus.capsules.values()
                for obj in capsule.all_objects()]
