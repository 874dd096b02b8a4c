"""Deal specifications: matrix, digraph, and well-formedness.

A deal (paper §2.1) is captured by a matrix whose entry *(i, j)* lists
the assets party *i* transfers to party *j*.  Operationally we specify
a deal as:

* a set of **assets**, each escrowed once on its home chain by its
  original owner (the paper's *m*);
* a sequence of **transfer steps**, each tentatively moving some or
  all of an asset from one party to another inside the escrow (the
  paper's *t*; multi-hop flows like Bob → Alice → Carol are successive
  steps on the same asset).

The Figure 1 matrix and Figure 2 digraph are both derived views of the
step list.  Well-formedness (§5.1) is strong connectivity of the
digraph: a deal that is not strongly connected contains free riders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import networkx as nx

from repro.crypto.hashing import hash_concat
from repro.crypto.keys import Address
from repro.errors import MalformedDealError

# The atomic-commit protocols a deal may nominate (paper §5, §6, plus
# the market's simplified unanimity-order flow).  The protocol is part
# of the spec — and of ``deal_id`` — because the parties' signatures
# must bind *how* the deal commits, not just what it trades.
PROTOCOL_UNANIMITY = "unanimity"
PROTOCOL_TIMELOCK = "timelock"
PROTOCOL_CBC = "cbc"
PROTOCOLS = (PROTOCOL_UNANIMITY, PROTOCOL_TIMELOCK, PROTOCOL_CBC)


@dataclass(frozen=True)
class Asset:
    """One escrowed asset: a fungible amount or a set of unique tokens.

    ``asset_id`` is unique within the deal.  ``owner`` is the party
    that escrows the asset (and recovers it on abort — the A-map of
    §4 never changes after escrow).
    """

    asset_id: str
    chain_id: str
    token: str
    owner: Address
    amount: int = 0
    token_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if bool(self.amount) == bool(self.token_ids):
            raise MalformedDealError(
                f"asset {self.asset_id!r} must have an amount xor token ids"
            )
        if self.amount < 0:
            raise MalformedDealError(f"asset {self.asset_id!r} has negative amount")

    @property
    def fungible(self) -> bool:
        """Whether the asset is a fungible amount (vs unique tokens)."""
        return self.amount > 0

    def units(self) -> int:
        """The asset's size (amount, or number of unique tokens)."""
        return self.amount if self.fungible else len(self.token_ids)


@dataclass(frozen=True)
class TransferStep:
    """One tentative transfer: part of ``asset_id`` from giver to receiver."""

    asset_id: str
    giver: Address
    receiver: Address
    amount: int = 0
    token_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if bool(self.amount) == bool(self.token_ids):
            raise MalformedDealError("step must carry an amount xor token ids")
        if self.giver == self.receiver:
            raise MalformedDealError("self-transfers are not allowed")


@dataclass(frozen=True)
class DealSpec:
    """A complete deal specification.

    ``labels`` maps addresses to display names ("alice", ...) for
    rendering the matrix; the protocol itself only uses addresses.
    """

    parties: tuple[Address, ...]
    assets: tuple[Asset, ...]
    steps: tuple[TransferStep, ...]
    labels: dict = field(default_factory=dict, compare=False, hash=False)
    nonce: bytes = b""
    protocol: str = PROTOCOL_UNANIMITY

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise MalformedDealError(f"unknown commit protocol {self.protocol!r}")
        if len(set(self.parties)) != len(self.parties):
            raise MalformedDealError("duplicate parties")
        party_set = set(self.parties)
        asset_ids = [asset.asset_id for asset in self.assets]
        if len(set(asset_ids)) != len(asset_ids):
            raise MalformedDealError("duplicate asset ids")
        assets_by_id = {asset.asset_id: asset for asset in self.assets}
        for asset in self.assets:
            if asset.owner not in party_set:
                raise MalformedDealError(
                    f"asset {asset.asset_id!r} owned by non-party {asset.owner}"
                )
        # Replay the steps against the C-map to check flow feasibility.
        holdings = _initial_holdings(self.assets)
        for step in self.steps:
            if step.giver not in party_set or step.receiver not in party_set:
                raise MalformedDealError("step references a non-party")
            asset = assets_by_id.get(step.asset_id)
            if asset is None:
                raise MalformedDealError(f"step references unknown asset {step.asset_id!r}")
            _apply_step(holdings, asset, step)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @cached_property
    def deal_id(self) -> bytes:
        """A content-derived identifier, used as the protocol nonce.

        Cached: the spec is frozen, and the market runtime reads the
        id on every step of every deal.
        """
        parts = [b"repro/deal", self.nonce, self.protocol.encode("utf-8")]
        parts.extend(address.value for address in self.parties)
        for asset in self.assets:
            parts.append(
                hash_concat(
                    asset.asset_id.encode("utf-8"),
                    asset.chain_id.encode("utf-8"),
                    asset.token.encode("utf-8"),
                    asset.owner.value,
                    asset.amount.to_bytes(16, "big"),
                    *[tid.encode("utf-8") for tid in asset.token_ids],
                )
            )
        for step in self.steps:
            parts.append(
                hash_concat(
                    step.asset_id.encode("utf-8"),
                    step.giver.value,
                    step.receiver.value,
                    step.amount.to_bytes(16, "big"),
                    *[tid.encode("utf-8") for tid in step.token_ids],
                )
            )
        return hash_concat(*parts)

    def label(self, address: Address) -> str:
        """The display name of ``address`` (falls back to hex)."""
        return self.labels.get(address, address.hex()[:10])

    # ------------------------------------------------------------------
    # Derived quantities (the paper's n, m, t)
    # ------------------------------------------------------------------
    @property
    def n_parties(self) -> int:
        """The paper's *n*."""
        return len(self.parties)

    @property
    def m_assets(self) -> int:
        """The paper's *m*."""
        return len(self.assets)

    @property
    def t_transfers(self) -> int:
        """The paper's *t* (t >= m is not required: an asset with no
        step simply returns to its owner either way)."""
        return len(self.steps)

    def asset(self, asset_id: str) -> Asset:
        """Look up an asset by id."""
        for asset in self.assets:
            if asset.asset_id == asset_id:
                return asset
        raise MalformedDealError(f"unknown asset {asset_id!r}")

    def chains(self) -> tuple[str, ...]:
        """The distinct chains the deal touches, sorted."""
        return tuple(sorted({asset.chain_id for asset in self.assets}))

    # ------------------------------------------------------------------
    # Commit-state projection
    # ------------------------------------------------------------------
    def final_commit_holdings(self) -> dict[str, dict[Address, object]]:
        """Project the C-map after all steps.

        Returns ``{asset_id: {party: amount}}`` for fungible assets and
        ``{asset_id: {party: set_of_token_ids}}`` for non-fungible
        ones — who owns what if the deal commits.
        """
        holdings = _initial_holdings(self.assets)
        assets_by_id = {asset.asset_id: asset for asset in self.assets}
        for step in self.steps:
            _apply_step(holdings, assets_by_id[step.asset_id], step)
        return holdings

    def incoming(self, party: Address) -> dict[str, object]:
        """What ``party`` nets per asset if the deal commits,
        excluding what it escrowed itself (its column in Figure 1)."""
        final = self.final_commit_holdings()
        result: dict[str, object] = {}
        for asset in self.assets:
            gained = final[asset.asset_id].get(party)
            if gained is None:
                continue
            if asset.owner == party:
                continue
            if asset.fungible and gained > 0:
                result[asset.asset_id] = gained
            elif not asset.fungible and gained:
                result[asset.asset_id] = set(gained)
        return result

    def outgoing(self, party: Address) -> dict[str, object]:
        """What ``party`` relinquishes per asset if the deal commits
        (its row in Figure 1)."""
        final = self.final_commit_holdings()
        result: dict[str, object] = {}
        for asset in self.assets:
            if asset.owner != party:
                continue
            kept = final[asset.asset_id].get(party)
            if asset.fungible:
                given = asset.amount - (kept or 0)
                if given > 0:
                    result[asset.asset_id] = given
            else:
                given = set(asset.token_ids) - set(kept or set())
                if given:
                    result[asset.asset_id] = given
        return result

    def escrow_contract_name(self, asset_id: str) -> str:
        """The canonical on-chain name of an asset's escrow contract."""
        return f"escrow/{self.deal_id.hex()[:12]}/{asset_id}"

    def is_well_formed(self) -> bool:
        """Strong connectivity of the deal digraph (§5.1)."""
        graph = deal_digraph(self)
        if graph.number_of_nodes() <= 1:
            return True
        return nx.is_strongly_connected(graph)


def _initial_holdings(assets: tuple[Asset, ...]) -> dict[str, dict[Address, object]]:
    holdings: dict[str, dict[Address, object]] = {}
    for asset in assets:
        if asset.fungible:
            holdings[asset.asset_id] = {asset.owner: asset.amount}
        else:
            holdings[asset.asset_id] = {asset.owner: set(asset.token_ids)}
    return holdings


def _apply_step(
    holdings: dict[str, dict[Address, object]], asset: Asset, step: TransferStep
) -> None:
    per_asset = holdings[step.asset_id]
    if asset.fungible:
        if step.token_ids:
            raise MalformedDealError(
                f"step on fungible asset {asset.asset_id!r} names token ids"
            )
        have = per_asset.get(step.giver, 0)
        if have < step.amount:
            raise MalformedDealError(
                f"step overdraws asset {asset.asset_id!r}: "
                f"{step.giver} has {have}, needs {step.amount}"
            )
        per_asset[step.giver] = have - step.amount
        per_asset[step.receiver] = per_asset.get(step.receiver, 0) + step.amount
    else:
        if step.amount:
            raise MalformedDealError(
                f"step on non-fungible asset {asset.asset_id!r} names an amount"
            )
        have = per_asset.get(step.giver, set())
        missing = set(step.token_ids) - set(have)
        if missing:
            raise MalformedDealError(
                f"step moves tokens {sorted(missing)} that {step.giver} lacks"
            )
        per_asset[step.giver] = set(have) - set(step.token_ids)
        receiver_have = per_asset.get(step.receiver, set())
        per_asset[step.receiver] = set(receiver_have) | set(step.token_ids)


def deal_digraph(spec: DealSpec) -> "nx.DiGraph":
    """The Figure 2 digraph: a vertex per party, an arc per transfer."""
    graph = nx.DiGraph()
    graph.add_nodes_from(spec.parties)
    for step in spec.steps:
        if graph.has_edge(step.giver, step.receiver):
            graph[step.giver][step.receiver]["steps"].append(step)
        else:
            graph.add_edge(step.giver, step.receiver, steps=[step])
    # Parties with no arcs at all are not part of the exchange.
    isolated = [node for node in graph.nodes if graph.degree(node) == 0]
    graph.remove_nodes_from(isolated)
    return graph


def deal_matrix(spec: DealSpec) -> dict[tuple[Address, Address], list[str]]:
    """The Figure 1 matrix: ``(giver, receiver) -> transfer descriptions``."""
    matrix: dict[tuple[Address, Address], list[str]] = {}
    for step in spec.steps:
        asset = spec.asset(step.asset_id)
        if asset.fungible:
            description = f"{step.amount} {asset.token}"
        else:
            description = f"{asset.token}[{', '.join(step.token_ids)}]"
        matrix.setdefault((step.giver, step.receiver), []).append(description)
    return matrix
