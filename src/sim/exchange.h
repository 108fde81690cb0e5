// Rendezvous exchange for threaded SPMD execution.
//
// ExchangeHub is the synchronization core of the parallel lockstep
// executor (sim/spmd.h): every member of a group deposits one tensor and
// blocks until the whole group has arrived, then receives the full ordered
// set of deposits. Groups are identified by their (ordered) member list;
// distinct groups synchronize independently, and one group can rendezvous
// repeatedly (each round is an epoch). This is the moral equivalent of an
// MPI communicator's collective entry point, reduced to the one primitive
// every collective in this codebase can be built from.
//
// Deposits travel as shared_ptr<const Tensor>: the depositing chip moves its
// tensor in once, and every member receives pointers to the same immutable
// payloads -- no per-member deep copies. Callers that assemble an output
// (concat, reduce) read through the pointers directly. Each deposit also
// carries the depositor's virtual clock, so a collective's entry barrier
// (max over member clocks) can be computed from the rendezvous itself with
// no cross-thread counter reads.
//
// Correctness contract (same as MPI): all members of a group must call
// Exchange the same number of times in the same order. A member of two
// overlapping groups must not interleave their rounds differently on
// different chips -- SPMD programs satisfy this by construction.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/tensor.h"

namespace tsi {

// Counting semaphore bounding how many chip threads run simultaneously.
// The SPMD executor acquires a slot to compute and releases it while parked
// in a rendezvous, so a program with more chips than slots still makes
// progress (the last arriver of a round always holds a slot). One slot
// serializes execution exactly -- the baseline the wall-clock benchmarks
// compare against.
class SlotGate {
 public:
  explicit SlotGate(int slots) : free_(slots) {}
  SlotGate(const SlotGate&) = delete;
  SlotGate& operator=(const SlotGate&) = delete;

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return free_ > 0; });
    --free_;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++free_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int free_;
};

class ExchangeHub {
 public:
  // One member's contribution to a rendezvous round: the shared payload plus
  // the depositor's virtual clock at the collective's entry.
  struct Deposit {
    std::shared_ptr<const Tensor> tensor;
    double time = 0;
  };

  // Rendezvous state for one group; a stable handle into the hub's registry,
  // so per-round callers skip the registry lock and group-key lookup.
  class Channel {
   public:
    Channel() = default;
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    int size() const { return size_; }

   private:
    friend class ExchangeHub;

    std::mutex m;
    std::condition_variable cv;
    uint64_t epoch = 0;
    int arrived = 0;
    int size_ = 0;  // group size, fixed at registration
    std::vector<Deposit> slots;
    std::vector<Deposit> result;
  };

  ExchangeHub() = default;
  ExchangeHub(const ExchangeHub&) = delete;
  ExchangeHub& operator=(const ExchangeHub&) = delete;

  // Returns the channel for `group`, creating it on first use. The reference
  // is stable for the hub's lifetime; every member must resolve the same
  // (same-order) group list.
  Channel& ChannelFor(const std::vector<int>& group);

  // Deposits `t` (stamped with virtual clock `time`) as the contribution of
  // member `rank` and blocks until every member has deposited; returns the
  // deposits in group order (shared, not copied). `ch` must be the channel
  // of a group of which the caller is member `rank`. If `gate` is non-null,
  // the caller's execution slot is released while parked waiting for the
  // rest of the group and re-acquired before returning.
  std::vector<Deposit> Exchange(Channel& ch, int rank, Tensor t,
                                double time = 0.0, SlotGate* gate = nullptr);

  // Convenience: resolve the channel and exchange in one call.
  std::vector<Deposit> Exchange(const std::vector<int>& group, int rank,
                                Tensor t) {
    return Exchange(ChannelFor(group), rank, std::move(t));
  }

 private:
  std::mutex registry_mutex_;
  std::map<std::vector<int>, Channel> groups_;
};

}  // namespace tsi
