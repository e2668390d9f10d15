"""The multi-account bank (paper §2 "Method categories" example).

A map from accounts to balances with ``open``, ``deposit`` and
``withdraw``.  The paper uses it as the example of a method that is
conflict-free **but dependent**: ``deposit`` never conflicts, yet it
depends on ``open`` (a deposit into an account is only permissible once
the account exists), so it cannot be reduced and travels through the F
buffers.  ``withdraw`` permissible-conflicts with itself as in the
single account.

State: ``(accounts, balances)`` where balances is a frozenset of
``(account, balance)`` pairs (kept canonical: no zero-amount noise,
one entry per account).  Invariant: every balance row references an
open account and is non-negative.  The delta invariants
(``UpdateDef.keeps``): ``open`` always keeps it; ``deposit`` and
``withdraw`` check only the touched account's row.
"""

from __future__ import annotations

from ..core import ObjectSpec, QueryDef, UpdateDef, keeps_always

__all__ = ["bankmap_spec"]

State = tuple[frozenset, frozenset]  # (accounts, {(account, balance)})

_ACCOUNTS = ["acc1", "acc2"]


def _balances_dict(state: State) -> dict[str, int]:
    _accounts, balances = state
    return dict(balances)

def _with_balance(state: State, account: str, balance: int) -> State:
    accounts, balances = state
    rest = frozenset(row for row in balances if row[0] != account)
    if balance == 0:
        return (accounts, rest)
    return (accounts, rest | {(account, balance)})


def _invariant(state: State) -> bool:
    accounts, balances = state
    return all(acc in accounts and bal >= 0 for (acc, bal) in balances)

def _open(account: str, state: State) -> State:
    accounts, balances = state
    return (accounts | {account}, balances)

def _deposit(arg: tuple[str, int], state: State) -> State:
    account, amount = arg
    current = _balances_dict(state).get(account, 0)
    return _with_balance(state, account, current + amount)

def _withdraw(arg: tuple[str, int], state: State) -> State:
    account, amount = arg
    current = _balances_dict(state).get(account, 0)
    return _with_balance(state, account, current - amount)

def _balance(account: str, state: State) -> int:
    return _balances_dict(state).get(account, 0)


def _keeps_row(state: State, account: str, balance: int) -> bool:
    """``I`` once ``account``'s row reads ``balance``, given ``I``
    before: no other row changed, and a zero row is dropped."""
    accounts, _balances = state
    return balance == 0 or (account in accounts and balance > 0)

def _deposit_keeps(arg: tuple[str, int], state: State) -> bool:
    account, amount = arg
    return _keeps_row(state, account, _balance(account, state) + amount)

def _withdraw_keeps(arg: tuple[str, int], state: State) -> bool:
    account, amount = arg
    return _keeps_row(state, account, _balance(account, state) - amount)


def bankmap_spec() -> ObjectSpec:
    return ObjectSpec(
        name="bankmap",
        initial_state=lambda: (frozenset(), frozenset()),
        invariant=_invariant,
        updates=[
            UpdateDef("open", _open, keeps_always),
            UpdateDef("deposit", _deposit, _deposit_keeps),
            UpdateDef("withdraw", _withdraw, _withdraw_keeps),
        ],
        queries=[QueryDef("balance", _balance)],
        state_gen=_random_state,
        arg_gens={
            "open": lambda rng: rng.choice(_ACCOUNTS),
            "deposit": lambda rng: (rng.choice(_ACCOUNTS), rng.randrange(1, 6)),
            "withdraw": lambda rng: (
                rng.choice(_ACCOUNTS),
                rng.randrange(1, 6),
            ),
        },
    )


def _random_state(rng) -> State:
    accounts = frozenset(a for a in _ACCOUNTS if rng.random() < 0.7)
    balances = frozenset(
        (a, rng.randrange(1, 10)) for a in accounts if rng.random() < 0.7
    )
    return (accounts, balances)
