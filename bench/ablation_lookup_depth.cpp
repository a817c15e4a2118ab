// Ablation (paper Sec. 5 complexity claim): LHT's binary search over
// candidate *names* costs ~log2(D/2) DHT-lookups, vs ~log2(D) for PHT's
// binary search over all prefix lengths, vs ~D/2 for a naive linear descent
// over distinct names. Sweeps the a-priori depth parameter D.
#include <iostream>

#include "common/csv.h"
#include <cmath>
#include "common/flags.h"
#include "common/random.h"
#include "dht/local_dht.h"
#include "lht/lht_index.h"
#include "pht/pht_index.h"
#include "workload/generators.h"

using namespace lht;

int main(int argc, char** argv) {
  common::Flags flags("ablation_lookup_depth",
                      "lookup cost vs D: binary vs linear vs PHT");
  flags.define("datasize", "16384", "records inserted");
  flags.define("queries", "500", "lookups measured per configuration");
  flags.define("csv", "false", "emit CSV instead of a pretty table");
  if (!flags.parse(argc, argv)) return 1;
  const auto n = static_cast<size_t>(flags.getInt("datasize"));
  const auto queries = static_cast<size_t>(flags.getInt("queries"));

  common::Table t({"D", "lht_binary", "lht_linear", "pht_binary", "log2_D_half",
                   "log2_D"});
  for (common::u32 depth : {12u, 16u, 20u, 28u, 36u, 48u}) {
    dht::LocalDht d1, d2;
    core::LhtIndex::Options lo;
    lo.thetaSplit = 100;
    lo.maxDepth = depth;
    core::LhtIndex lht(d1, lo);
    pht::PhtIndex::Options po;
    po.thetaSplit = 100;
    po.maxDepth = depth;
    pht::PhtIndex pht(d2, po);

    auto data = workload::makeDataset(workload::Distribution::Uniform, n, 1);
    for (const auto& r : data) {
      lht.insert(r);
      pht.insert(r);
    }
    common::Pcg32 rng(99);
    double bin = 0, lin = 0, phtCost = 0;
    for (size_t q = 0; q < queries; ++q) {
      const double key = rng.nextDouble();
      bin += static_cast<double>(lht.lookup(key).stats.dhtLookups);
      lin += static_cast<double>(lht.lookupLinear(key).stats.dhtLookups);
      phtCost += static_cast<double>(pht.lookup(key).stats.dhtLookups);
    }
    const double qd = static_cast<double>(queries);
    t.row()
        .add(static_cast<common::i64>(depth))
        .add(bin / qd)
        .add(lin / qd)
        .add(phtCost / qd)
        .add(std::log2(depth / 2.0))
        .add(std::log2(static_cast<double>(depth)));
  }
  if (flags.getBool("csv")) {
    t.printCsv(std::cout);
  } else {
    t.printPretty(std::cout,
                  "Ablation: avg DHT-lookups per lookup vs a-priori depth D");
  }
  std::cout << "\npaper claim: LHT binary ~ log2(D/2) < PHT ~ log2(D); the "
               "linear strategy shows what the binary search buys\n";
  return 0;
}
