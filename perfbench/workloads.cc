#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "batch/arrival_process.h"
#include "batch/job_factory.h"
#include "batch/job_metrics.h"
#include "common/rng.h"
#include "core/apc_controller.h"
#include "exp/experiment1.h"
#include "obs/trace_export.h"
#include "sim/simulation.h"
#include "svc/controller_service.h"
#include "web/workload_generator.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using mwp::ApcController;
using mwp::ControlEvent;
using mwp::ControlEventKind;
using mwp::ControllerService;
using mwp::JobQueue;
using mwp::Seconds;
using mwp::Simulation;

constexpr const char* kExp1 = "exp1-paper";
constexpr const char* kAlibaba = "alibaba-100";
constexpr const char* kStorm = "storm-25";

/// The process's resident-set high-water mark (VmHWM). Unlike getrusage's
/// ru_maxrss, it starts afresh at exec, so a parent's footprint does not
/// leak into it.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// FNV-1a 64 over the byte-stable rendering of a generated input stream.
std::uint64_t HashTimes(std::string_view tag, const std::vector<Seconds>& ts) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto add = [&hash](std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  };
  add(tag);
  for (const Seconds t : ts) {
    add(" ");
    add(mwp::obs::FormatDouble(t));
  }
  return hash;
}

/// End state of every job, in submission order (the scenario's format).
std::string Fingerprint(const JobQueue& queue) {
  std::ostringstream fp;
  for (const mwp::Job* job : queue.All()) {
    fp << job->id() << ':' << static_cast<int>(job->status()) << ':'
       << (job->placed() ? job->node() : -1) << ':'
       << std::llround(job->work_done()) << ';';
  }
  return fp.str();
}

/// Poisson arrival instants up to `count` or `horizon`, whichever first.
std::vector<Seconds> PoissonSchedule(std::uint64_t seed, Seconds mean,
                                     int count, Seconds horizon) {
  mwp::PoissonArrivalProcess arrivals(mwp::Rng(seed), mean);
  std::vector<Seconds> times;
  for (int i = 0; i < count; ++i) {
    const Seconds t = arrivals.NextArrival();
    if (t > horizon) break;
    times.push_back(t);
  }
  return times;
}

/// Publishes one event and pumps it, closed loop, timing both calls and
/// attributing the Pump time to the decision kind the service took.
class TimedService {
 public:
  TimedService(ControllerService* service, DecisionTiming* timing,
               SpanLog* spans)
      : service_(service), timing_(timing), spans_(spans) {}

  void Send(ControlEvent event, Simulation& sim) {
    const ControllerService::Counters before = service_->counters();
    const std::uint64_t shed_before = service_->inbox().dropped();
    const std::uint64_t drained_before = Drained();
    const std::int64_t t0 = SteadyNs();
    service_->Publish(event);
    const std::int64_t t1 = SteadyNs();
    service_->Pump(sim);
    const std::int64_t t2 = SteadyNs();
    const ControllerService::Counters& after = service_->counters();

    ++timing_->published;
    timing_->shed += service_->inbox().dropped() - shed_before;
    timing_->decided += Drained() - drained_before;
    timing_->publish_ns.push_back(static_cast<double>(t1 - t0));
    timing_->decide_us.push_back(static_cast<double>(t2 - t0) * 1e-3);
    const double pump_ns = static_cast<double>(t2 - t1);
    if (after.full_cycles > before.full_cycles) {
      timing_->full_ms.push_back(pump_ns * 1e-6);
    } else if (after.repairs > before.repairs) {
      timing_->repair_us.push_back(pump_ns * 1e-3);
    } else if (after.quick_dispatches > before.quick_dispatches) {
      timing_->quick_us.push_back(pump_ns * 1e-3);
    }
    if (spans_ != nullptr) {
      const int event = spans_->Add("svc.event", t0, t2, spans_->current());
      spans_->Add("svc.publish", t0, t1, event);
      spans_->Add("svc.pump", t1, t2, event);
    }
  }

 private:
  /// Events the service has taken out of its inbox so far.
  std::uint64_t Drained() const {
    return service_->inbox().pushed() - service_->inbox().size();
  }

  ControllerService* service_;
  DecisionTiming* timing_;
  SpanLog* spans_;
};

ControlEvent MakeEvent(ControlEventKind kind, Seconds time) {
  ControlEvent e;
  e.kind = kind;
  e.time = time;
  return e;
}

ApcController::Config ControllerConfig(const PassOptions& o, Seconds cycle) {
  ApcController::Config cfg;
  cfg.control_cycle = cycle;
  cfg.costs = mwp::VmCostModel::PaperMeasured();
  cfg.trace = o.recorder;
  cfg.trace_run_id = o.run_id;
  cfg.trace_full = o.trace_full;
  cfg.optimizer.search_threads = kSearchLanes;
  return cfg;
}

void CollectController(const ApcController& controller, const JobQueue& queue,
                       Seconds tx_goal, PassResult& r) {
  for (const mwp::CycleStats& c : controller.cycles()) {
    if (c.num_jobs > 0) {
      r.max_hypothetical_rp = std::max(r.max_hypothetical_rp, c.avg_job_rp);
    }
    r.disruptive_changes += c.suspends + c.resumes + c.migrations;
    for (const Seconds rt : c.tx_response_times) {
      ++r.tx_samples;
      if (!(rt <= tx_goal)) ++r.tx_over_goal;
    }
  }
  r.placement_changes = controller.total_placement_changes();
  for (const mwp::JobOutcomeRecord& o : mwp::CollectOutcomes(queue)) {
    r.job_rp.push_back(o.achieved_utility);
  }
  r.jobs_submitted = queue.size();
  r.jobs_completed = queue.num_completed();
  r.fingerprint = Fingerprint(queue);
}

// --- exp1-paper ----------------------------------------------------------

constexpr int kExp1Jobs = 800;
constexpr Seconds kExp1Cycle = 600.0;
constexpr Seconds kExp1Interarrival = 260.0;

std::vector<Seconds> Exp1Schedule(std::uint64_t seed) {
  return PoissonSchedule(seed, kExp1Interarrival, kExp1Jobs,
                         std::numeric_limits<double>::infinity());
}

class Exp1Pass {
 public:
  // Mirrors RunExperiment1 with drive_with_service set.
  explicit Exp1Pass(const PassOptions& o)
      : arrivals_(Exp1Schedule(o.seed)),
        hash_(HashTimes(kExp1, arrivals_)),
        cluster_(mwp::ClusterSpec::Uniform(25, mwp::PaperNode())),
        controller_(&cluster_, &queue_, ControllerConfig(o, kExp1Cycle)),
        service_(&controller_, ControllerService::Config{}),
        timed_(&service_, &timing_, o.spans),
        factory_(mwp::IdenticalJobFactory::PaperExperimentOne()) {
    for (const Seconds t : arrivals_) {
      sim_.ScheduleAt(t, [this](Simulation& s) {
        mwp::Job& job = queue_.Submit(factory_->Create(s.now()));
        ControlEvent e = MakeEvent(ControlEventKind::kJobArrival, s.now());
        e.job = job.id();
        timed_.Send(e, s);
      });
    }
    sim_.SchedulePeriodic(0.0, kExp1Cycle, [this](Simulation& s) {
      timed_.Send(MakeEvent(ControlEventKind::kTimerTick, s.now()), s);
    });
  }

  void Run() {
    const Seconds ideal = kExp1Jobs * 17'600.0 / (25 * 3.0);
    const Seconds horizon =
        std::max(kExp1Jobs * kExp1Interarrival, ideal) * 4.0;
    while (queue_.num_completed() < static_cast<std::size_t>(kExp1Jobs) &&
           sim_.now() < horizon) {
      sim_.RunUntil(sim_.now() + kExp1Cycle);
    }
    controller_.AdvanceJobsTo(sim_.now());
  }

  void Collect(PassResult& r) const {
    r.workload_hash = hash_;
    CollectController(controller_, queue_, /*tx_goal=*/0.0, r);
    r.decisions = timing_;
  }

 private:
  std::vector<Seconds> arrivals_;
  std::uint64_t hash_;
  mwp::ClusterSpec cluster_;
  JobQueue queue_;
  Simulation sim_;
  ApcController controller_;
  ControllerService service_;
  DecisionTiming timing_;
  TimedService timed_;
  std::unique_ptr<mwp::IdenticalJobFactory> factory_;
};

// --- storm-25 ------------------------------------------------------------

constexpr int kStormNodes = 25;
constexpr Seconds kStormHorizon = 9'600.0;
constexpr Seconds kStormInterarrival = 0.5;
constexpr Seconds kStormCycle = 120.0;
constexpr Seconds kStormTxGoal = 0.5;

std::vector<Seconds> StormSchedule(std::uint64_t seed) {
  return PoissonSchedule(seed, kStormInterarrival, 1 << 20, kStormHorizon);
}

class StormPass {
 public:
  // Mirrors examples/event_storm at 25 nodes, with the benchmark's own
  // closed-loop adapters so every event is timed.
  explicit StormPass(const PassOptions& o)
      : arrivals_(StormSchedule(o.seed)),
        hash_(HashTimes(kStorm, arrivals_)),
        cluster_(mwp::ClusterSpec::Uniform(
            kStormNodes, mwp::NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3000.0,
                                       /*memory_mb=*/8192.0})),
        controller_(&cluster_, &queue_, ControllerConfig(o, kStormCycle)),
        rate_(std::make_shared<mwp::SinusoidalRate>(
            /*base=*/20.0, /*amplitude=*/15.0, /*period=*/kStormHorizon / 2.0)),
        factory_(std::make_unique<mwp::IdenticalJobFactory>(
            mwp::JobProfile::SingleStage(/*work=*/90'000.0,
                                         /*max_speed=*/3000.0,
                                         /*memory=*/2048.0),
            /*relative_goal_factor=*/4.0)) {
    mwp::TransactionalAppSpec tx;
    tx.id = 100'000;
    tx.name = "storefront";
    tx.memory_per_instance = 1024.0;
    tx.response_time_goal = kStormTxGoal;
    tx.demand_per_request = 250.0;
    tx.min_response_time = 0.05;
    tx.saturation_allocation = 9000.0;
    tx.max_instances = kStormNodes;
    controller_.AddTransactionalApp(tx, rate_);
    service_ = std::make_unique<ControllerService>(&controller_,
                                                   ControllerService::Config{});
    timed_ = std::make_unique<TimedService>(service_.get(), &timing_,
                                            o.spans);

    for (const Seconds t : arrivals_) {
      sim_.ScheduleAt(t, [this](Simulation& s) {
        mwp::Job& job = queue_.Submit(factory_->Create(s.now()));
        ControlEvent e = MakeEvent(ControlEventKind::kJobArrival, s.now());
        e.job = job.id();
        timed_->Send(e, s);
      });
    }
    for (int episode = 0; episode < 2; ++episode) {
      const mwp::NodeId victim = episode + 1;
      const Seconds down = kStormHorizon * (0.25 + 0.35 * episode);
      sim_.ScheduleAt(down, [this, victim](Simulation& s) {
        cluster_.SetNodeOffline(victim);
        ControlEvent e = MakeEvent(ControlEventKind::kNodeFault, s.now());
        e.node = victim;
        timed_->Send(e, s);
      });
      sim_.ScheduleAt(down + kStormHorizon * 0.1,
                      [this, victim](Simulation& s) {
                        cluster_.SetNodeOnline(victim);
                        ControlEvent e =
                            MakeEvent(ControlEventKind::kNodeRestore, s.now());
                        e.node = victim;
                        timed_->Send(e, s);
                      });
    }
    sim_.SchedulePeriodic(0.0, kStormCycle, [this](Simulation& s) {
      timed_->Send(MakeEvent(ControlEventKind::kTimerTick, s.now()), s);
    });
    // WatchTxLoadShift's rule: publish a shift when the rate moved more
    // than 25% from the rate at the last shift.
    last_rate_ = rate_->RateAt(0.0);
    sim_.SchedulePeriodic(0.0, kStormCycle / 4.0, [this](Simulation& s) {
      const double r = rate_->RateAt(s.now());
      if (std::abs(r - last_rate_) / std::max(last_rate_, 1e-9) <= 0.25) {
        return;
      }
      last_rate_ = r;
      ControlEvent e = MakeEvent(ControlEventKind::kTxLoadShift, s.now());
      e.tx_index = 0;
      e.arrival_rate = r;
      timed_->Send(e, s);
    });
  }

  void Run() {
    sim_.RunUntil(kStormHorizon);
    controller_.AdvanceJobsTo(sim_.now());
  }

  void Collect(PassResult& r) const {
    r.workload_hash = hash_;
    CollectController(controller_, queue_, kStormTxGoal, r);
    r.decisions = timing_;
  }

 private:
  std::vector<Seconds> arrivals_;
  std::uint64_t hash_;
  mwp::ClusterSpec cluster_;
  JobQueue queue_;
  Simulation sim_;
  ApcController controller_;
  std::shared_ptr<mwp::SinusoidalRate> rate_;
  std::unique_ptr<mwp::IdenticalJobFactory> factory_;
  std::unique_ptr<ControllerService> service_;
  DecisionTiming timing_;
  std::unique_ptr<TimedService> timed_;
  double last_rate_ = 0.0;
};

// --- alibaba-100 ---------------------------------------------------------

mwp::workload::ScenarioSpec AlibabaSpec(std::uint64_t seed) {
  mwp::workload::ScenarioSpec spec = mwp::workload::AlibabaScenarioSpec(
      /*num_nodes=*/100, seed);
  spec.shard_cell_size = 25;
  return spec;
}

class AlibabaPass {
 public:
  explicit AlibabaPass(const PassOptions& o) : spec_(AlibabaSpec(o.seed)) {
    spec_.trace = o.recorder;
    spec_.trace_run_id = o.run_id;
    spec_.trace_full = o.trace_full;
    hash_ = mwp::workload::WorkloadHash(mwp::workload::GenerateWorkload(spec_));
  }

  // RunScenario materializes the stream again from the same spec; the
  // benchmark checks that both materializations hash alike.
  void Run() {
    result_ = mwp::workload::RunScenario(spec_, mwp::workload::ScenarioMode::kApc);
  }

  void Collect(PassResult& r) const {
    if (result_.workload_hash != hash_) {
      throw std::runtime_error("alibaba-100: RunScenario hashed a different "
                               "workload than GenerateWorkload");
    }
    r.workload_hash = hash_;
    r.fingerprint = result_.placement_fingerprint;
    r.jobs_submitted = result_.jobs_submitted;
    r.jobs_completed = result_.jobs_completed;
    r.job_rp = result_.job_rp.values();
    r.tx_samples = result_.tx_samples;
    r.tx_over_goal = result_.tx_sla_violations;
    r.placement_changes = result_.placement_changes;
    r.disruptive_changes = result_.disruptive_changes;
  }

 private:
  mwp::workload::ScenarioSpec spec_;
  std::uint64_t hash_ = 0;
  mwp::workload::ScenarioResult result_;
};

template <typename Pass>
PassResult Measure(const PassOptions& options) {
  PassResult r;
  const std::int64_t t0 = SteadyNs();
  Pass pass(options);
  const std::int64_t t1 = SteadyNs();
  int run_span = -1;
  if (options.spans != nullptr) {
    options.spans->Add("workload.setup", t0, t1, options.spans->current());
    run_span = options.spans->Begin("sim.run");
  }
  pass.Run();
  if (run_span >= 0) options.spans->End(run_span);
  const std::int64_t t2 = SteadyNs();
  pass.Collect(r);
  const std::vector<mwp::obs::CycleTrace> traces = options.recorder->Traces();
  r.cycles = static_cast<int>(traces.size());
  for (const mwp::obs::CycleTrace& t : traces) {
    if (!t.shortcut) r.cycle_ms.push_back(t.solver_seconds * 1e3);
    r.solver_s += t.solver_seconds;
    r.evaluations += static_cast<std::uint64_t>(t.evaluations);
  }
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  r.run_s = static_cast<double>(t2 - t1) * 1e-9;
  r.peak_rss_mb = PeakRssMb();
  return r;
}

template <typename Pass>
double MeasureSetup(std::uint64_t seed) {
  mwp::obs::TraceRecorder recorder;
  PassOptions options;
  options.seed = seed;
  options.recorder = &recorder;
  const double t0 = NowSeconds();
  const Pass pass(options);
  return NowSeconds() - t0;
}

}  // namespace

double NowSeconds() { return static_cast<double>(SteadyNs()) * 1e-9; }

int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

bool KnownWorkload(const std::string& name) {
  return name == kExp1 || name == kAlibaba || name == kStorm;
}

PassResult RunPass(const std::string& workload, const PassOptions& options) {
  if (workload == kExp1) return Measure<Exp1Pass>(options);
  if (workload == kAlibaba) return Measure<AlibabaPass>(options);
  return Measure<StormPass>(options);
}

double SetupOnly(const std::string& workload, std::uint64_t seed) {
  if (workload == kExp1) return MeasureSetup<Exp1Pass>(seed);
  if (workload == kAlibaba) return MeasureSetup<AlibabaPass>(seed);
  return MeasureSetup<StormPass>(seed);
}

double GenerateAlibaba(std::uint64_t seed) {
  const double t0 = NowSeconds();
  const mwp::workload::ScenarioWorkload w =
      mwp::workload::GenerateWorkload(AlibabaSpec(seed));
  const double elapsed = NowSeconds() - t0;
  if (w.jobs.empty()) throw std::runtime_error("alibaba-100 generated no jobs");
  return elapsed;
}

}  // namespace perfbench
