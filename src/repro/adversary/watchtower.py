"""Watchtowers: third parties that act for offline clients (§5.3).

The paper points to the Lightning network's watchtowers as the
established answer to timelock offline windows.  A watchtower here is
a separately connected actor that a client *pre-authorizes* (in
Lightning: with pre-signed transactions; here: with a signing
delegation limited to vote forwarding) to do the time-critical part
of the client's protocol while the client is unreachable:

* it watches the client's *outgoing* assets' contracts for newly
  accepted votes, and
* forwards them (path-extended with the client's signature) to the
  client's *incoming* assets' contracts before the path deadline.

The watchtower has its own network endpoint, so a DoS window aimed at
the client does not silence it.
"""

from __future__ import annotations

from repro.chain.tx import Transaction
from repro.core.config import ProtocolConfig
from repro.core.deal import DealSpec
from repro.core.executor import fan_out
from repro.core.parties import CompliantParty
from repro.crypto.keys import Address
from repro.crypto.pathsig import PathSignature, extend_path_signature


class Watchtower:
    """Forwards timelock commit votes on behalf of one client party."""

    def __init__(self, client: CompliantParty):
        self.client = client
        self.env = None
        self.spec: DealSpec | None = None
        self.config: ProtocolConfig | None = None
        self._forwarded: set[tuple[str, Address]] = set()
        self.forward_count = 0

    @property
    def endpoint(self) -> str:
        """The watchtower's own network endpoint."""
        return f"watchtower:{self.client.label}"

    def attach(self, env, spec: DealSpec, config: ProtocolConfig) -> None:
        """Register on the network and start watching the deal's chains."""
        self.env = env
        self.spec = spec
        self.config = config
        env.network.register(self.endpoint, self._on_message)
        for chain in env.chains.values():
            fan_out(env.network, chain, [self.endpoint])

    def _on_message(self, message) -> None:
        payload = message.payload
        if payload[0] != "block":
            return
        _, chain_id, block = payload
        for receipt in block.receipts:
            for event in receipt.events:
                if event.name == "VoteAccepted":
                    self._maybe_forward(event.contract, event.fields["voter"], event.fields["path"])

    def _maybe_forward(self, contract_name: str, voter: Address, path: PathSignature) -> None:
        client_address = self.client.address
        if voter == client_address:
            return
        watched = {
            self.spec.escrow_contract_name(asset_id)
            for asset_id in self.client.outgoing_asset_ids()
        }
        if contract_name not in watched:
            return
        extended = extend_path_signature(path, self.client.keypair)
        for asset_id in self.client.incoming_asset_ids():
            target = self.spec.escrow_contract_name(asset_id)
            key = (target, voter)
            if key in self._forwarded:
                continue
            escrow = self.env.escrows[asset_id]
            if voter in escrow.peek_voted():
                continue
            self._forwarded.add(key)
            self.forward_count += 1
            asset = self.spec.asset(asset_id)
            tx = Transaction(
                sender=client_address,
                contract=target,
                method="commit",
                args={"path": extended},
                phase="commit",
            )
            self.env.network.send(self.endpoint, f"chain:{asset.chain_id}", ("tx", tx))
