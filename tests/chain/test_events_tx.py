"""Unit tests for events, transactions, and the error hierarchy."""

import pytest

from repro.chain.events import Event
from repro.chain.tx import Transaction, TxStatus
from repro.crypto.keys import KeyPair
from repro import errors


class TestEvent:
    def test_fields_frozen(self):
        event = Event("c", "Ping", {"a": 1})
        with pytest.raises(TypeError):
            event.fields["a"] = 2

    def test_matches(self):
        event = Event("c", "Ping", {"a": 1, "b": "x"})
        assert event.matches("Ping")
        assert event.matches("Ping", a=1)
        assert event.matches("Ping", a=1, b="x")
        assert not event.matches("Pong")
        assert not event.matches("Ping", a=2)
        assert not event.matches("Ping", missing=None)

    def test_matches_missing_key_never_matches(self):
        event = Event("c", "Ping", {"a": None})
        # A condition on an absent field never matches, even for None
        # or an accept-everything predicate.
        assert event.matches("Ping", a=None)
        assert not event.matches("Ping", b=None)
        assert not event.matches("Ping", b=lambda value: True)

    def test_matches_callable_conditions(self):
        event = Event("c", "Vote", {"count": 3, "voter": "alice"})
        assert event.matches("Vote", count=lambda n: n >= 2)
        assert not event.matches("Vote", count=lambda n: n >= 5)
        assert event.matches(
            "Vote", count=lambda n: n >= 2, voter="alice"
        )
        assert not event.matches(
            "Vote", count=lambda n: n >= 2, voter="bob"
        )

    def test_matches_does_not_mutate_payload(self):
        payload = {"items": (1, 2)}
        event = Event("c", "Ping", payload)
        seen = []
        event.matches("Ping", items=lambda value: seen.append(value) or True)
        assert seen == [(1, 2)]
        assert dict(event.fields) == {"items": (1, 2)}
        # The event froze a copy: mutating the caller's dict afterwards
        # never changes what matches() sees.
        payload["items"] = (9,)
        assert event.matches("Ping", items=(1, 2))

    def test_repr_contains_fields(self):
        event = Event("c", "Ping", {"a": 1})
        assert "Ping" in repr(event)


class TestTransaction:
    def test_ids_are_unique_and_increasing(self):
        sender = KeyPair.from_label("t").address
        a = Transaction(sender=sender, contract="c", method="m", args={})
        b = Transaction(sender=sender, contract="c", method="m", args={})
        assert b.tx_id > a.tx_id

    def test_describe(self):
        sender = KeyPair.from_label("t").address
        tx = Transaction(sender=sender, contract="token", method="mint", args={})
        text = tx.describe()
        assert "token.mint" in text
        assert f"tx#{tx.tx_id}" in text

    def test_status_values(self):
        assert TxStatus.SUCCESS.value == "success"
        assert TxStatus.REVERTED.value == "reverted"


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        leaves = [
            errors.ConfigurationError,
            errors.SignatureError,
            errors.SimulationError,
            errors.NetworkError,
            errors.UnknownContractError,
            errors.OutOfGasError,
            errors.TokenError,
            errors.MalformedDealError,
            errors.SwapError,
        ]
        for leaf in leaves:
            assert issubclass(leaf, errors.ReproError)

    def test_contract_errors_revert(self):
        # OutOfGas and Token errors are ContractErrors -> revertible.
        assert issubclass(errors.OutOfGasError, errors.ContractError)
        assert issubclass(errors.TokenError, errors.ContractError)

    def test_signature_error_is_crypto_error(self):
        assert issubclass(errors.SignatureError, errors.CryptoError)
