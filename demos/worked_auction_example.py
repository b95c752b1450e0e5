#!/usr/bin/env python3
"""Walk through the two auction rules on small hand-checkable inputs.

First a single-object second-score auction, run as the multi-object
Vickrey-score auction at K = 1, then that auction on the three-bidder
marginal-score instance whose allocation and payments can be verified by
hand.
"""

from cmstream import (
    MomdBid,
    ScoreFunction,
    resolve_from_marginal_scores,
    resolve_vickrey_score,
)

print("=== Second-score auction ===")
print()
print("Three bidders compete for one segment slot. Each bid is a")
print("(bitrate, price) pair; with a zero score penalty the score is")
print("just the price, so this reduces to a second-price auction.")
print()

# one-row bids: a bitrate matrix of one segment and its price
bids = [
    MomdBid(bidder_id="alice", bitrate_matrix=((1.3,),), price_vector=(5.0,)),
    MomdBid(bidder_id="bob", bitrate_matrix=((2.3,),), price_vector=(3.0,)),
    MomdBid(bidder_id="carol", bitrate_matrix=((0.7,),), price_vector=(2.0,)),
]
outcome = resolve_vickrey_score(bids, ScoreFunction.zero(), 1)
for bid in bids:
    print(f"  {bid.bidder_id:>5}: bitrate {bid.row(1)[0]} Mbps, "
          f"price {bid.price_vector[0]}")
print()
winner = outcome.per_segment_winners[0]
print(f"Winner: {winner} at {outcome.winning_bitrates[winner][0]} Mbps, "
      f"paying {outcome.payments[winner]} (the second-highest score).")
print()

print("=== Vickrey-score auction, K = 4 segments ===")
print()
print("Each bidder reports a marginal-score sequence: the score increase")
print("from winning one more segment. The four globally highest marginal")
print("scores win; each winner pays the score damage it causes the others.")
print()

seqs = {
    "1": (8.0, 7.0, 5.0, 2.0),
    "2": (9.0, 6.0, 3.0, 2.0),
    "3": (4.0, 4.0, 3.0, 1.0),
}
for bidder, scores in seqs.items():
    print(f"  bidder {bidder}: marginal scores {scores}")
print()
print("Sorted marginals: 9, 8, 7, 6 | 5, 4, 4, ... -- the top four come")
print("from bidders 1 and 2 (two each); bidder 3 wins nothing.")
print()

outcome = resolve_from_marginal_scores(seqs, K=4)
print(f"Allocation: {outcome.revised_allocation}")
for bidder in sorted(seqs):
    if outcome.revised_allocation[bidder]:
        print(f"  bidder {bidder} pays {outcome.payments[bidder]:g} "
              f"(score damage to the others)")
print()
print("Without bidder 1, bidder 3's marginals 4 and 4 would have won:")
print("damage 4 + 4 = 8. Without bidder 2, bidder 1's 5 and bidder 3's 4")
print("move up: damage 5 + 4 = 9.")
