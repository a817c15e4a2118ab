// Churn experiment (the paper's motivating setting: "peers frequently
// join/leave the networks"). Runs an insert+query workload on LHT over a
// replicated Chord ring while peers join, leave, and fail, and reports
// query correctness and cost per churn intensity.
#include <iostream>

#include "common/csv.h"
#include "common/flags.h"
#include "dht/chord.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "net/sim_network.h"
#include "sim/churn.h"
#include "workload/generators.h"

using namespace lht;

int main(int argc, char** argv) {
  common::Flags flags("table_churn", "LHT correctness and cost under churn");
  flags.define("ops", "4000", "insert operations per configuration");
  flags.define("peers", "24", "initial ring size");
  flags.define("replication", "3", "Chord replication factor");
  flags.define("csv", "false", "emit CSV instead of a pretty table");
  if (!flags.parse(argc, argv)) return 1;
  const auto ops = static_cast<size_t>(flags.getInt("ops"));

  common::Table t({"churn_period", "events", "joins", "leaves", "fails",
                   "range_ok", "avg_find_lookups", "net_messages"});
  for (common::u32 period : {0u, 200u, 50u, 20u}) {
    net::SimNetwork net;
    dht::ChordDht::Options dopts;
    dopts.initialPeers = static_cast<size_t>(flags.getInt("peers"));
    dopts.replication = static_cast<size_t>(flags.getInt("replication"));
    dht::ChordDht dht(net, dopts);
    core::LhtIndex idx(dht, {.thetaSplit = 50, .maxDepth = 24});
    index::ReferenceIndex oracle;

    sim::ChurnConfig ccfg;
    ccfg.period = period == 0 ? 1 : period;
    ccfg.joinWeight = 1.0;
    ccfg.leaveWeight = 0.7;
    ccfg.failWeight = 0.3;
    ccfg.minPeers = 8;
    sim::ChurnDriver churn(dht, ccfg);

    workload::KeyGenerator gen(workload::Distribution::Uniform, 17);
    for (size_t i = 0; i < ops; ++i) {
      index::Record r{gen.next(), common::numbered("r", i)};
      idx.insert(r);
      oracle.insert(r);
      if (period != 0) churn.maybeChurn();
    }

    // Correctness probe: a large range query must match the oracle exactly.
    auto mine = idx.rangeQuery(0.1, 0.9);
    auto truth = oracle.rangeQuery(0.1, 0.9);
    const bool ok = mine.records.size() == truth.records.size();

    common::Pcg32 rng(23);
    double findCost = 0;
    const int probes = 200;
    for (int q = 0; q < probes; ++q) {
      findCost += static_cast<double>(idx.find(rng.nextDouble()).stats.dhtLookups);
    }

    t.row()
        .add(period == 0 ? std::string("none") : std::to_string(period))
        .add(static_cast<common::i64>(churn.events()))
        .add(static_cast<common::i64>(churn.joins()))
        .add(static_cast<common::i64>(churn.leaves()))
        .add(static_cast<common::i64>(churn.fails()))
        .add(std::string(ok ? "yes" : "NO"))
        .add(findCost / probes)
        .add(static_cast<common::i64>(net.stats().messages));
  }
  if (flags.getBool("csv")) {
    t.printCsv(std::cout);
  } else {
    t.printPretty(std::cout,
                  "LHT over replicated Chord under churn (smaller period = "
                  "heavier churn)");
  }
  std::cout << "\nexpected: range_ok stays yes at every churn level (the DHT "
               "absorbs dynamism; the index needs no repair), query cost is "
               "churn-independent, network messages grow with churn\n";
  return 0;
}
