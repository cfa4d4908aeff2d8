#!/usr/bin/env python3
"""Generate synthetic daily close CSVs for experiments.

Two flavors:
  gbm     geometric Brownian motion -- well conditioned, the default
  smooth  slow trends + AR(1)-filtered walk -- windows are nearly collinear,
          so the observation covariance is badly conditioned (good for
          exercising the subspace cap)

Example:
  python3 scripts/make_synthetic_prices.py --kind smooth --days 3000 \
      --seed 42 --out data/smooth_3000.csv
"""

import argparse
import sys
from datetime import date, timedelta
from pathlib import Path

# run from a checkout without installing: the generators live in the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from subspace_forecast import gbm_prices, smooth_prices  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("gbm", "smooth"), default="gbm")
    ap.add_argument("--days", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--sigma", type=float, default=None,
                    help="daily volatility (default 0.015 gbm / 0.004 smooth)")
    ap.add_argument("--start", type=float, default=100.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    kwargs = {"start": args.start}
    if args.sigma is not None:
        kwargs["sigma"] = args.sigma
    prices = (gbm_prices if args.kind == "gbm" else smooth_prices)(args.days, args.seed, **kwargs)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    d0 = date(2000, 1, 3)
    with out.open("w") as fh:
        fh.write("date,close\n")
        for i, p in enumerate(prices):
            fh.write(f"{(d0 + timedelta(days=i)).isoformat()},{float(p)!r}\n")
    print(f"wrote {args.days} {args.kind} closes to {out}")


if __name__ == "__main__":
    main()
