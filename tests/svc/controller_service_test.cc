#include "svc/controller_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "batch/job_factory.h"
#include "exp/experiment1.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"
#include "svc/event_adapters.h"
#include "web/workload_generator.h"

namespace mwp {
namespace {

// Small world driven through the service from a simulation. Jobs are 10 s at
// full speed, three per node by memory, so the quick-dispatch and repair
// paths have real placements to make.
struct ServiceWorld {
  ClusterSpec cluster;
  JobQueue queue;
  Simulation sim;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder recorder;
  std::unique_ptr<IdenticalJobFactory> factory;
  std::unique_ptr<ApcController> controller;
  std::unique_ptr<ControllerService> service;

  explicit ServiceWorld(ControllerService::Config svc_cfg = {}, int nodes = 4)
      : cluster(ClusterSpec::Uniform(
            nodes, NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3'000.0,
                            /*memory_mb=*/8'192.0})),
        factory(std::make_unique<IdenticalJobFactory>(
            JobProfile::SingleStage(/*work=*/30'000.0, /*max_speed=*/3'000.0,
                                    /*memory=*/2'048.0),
            /*relative_goal_factor=*/2.7, /*first_id=*/100)) {
    ApcController::Config cfg;
    cfg.control_cycle = 600.0;
    cfg.costs = VmCostModel::Free();
    cfg.trace = &recorder;
    cfg.trace_run_id = "svc";
    controller = std::make_unique<ApcController>(&cluster, &queue, cfg);
    svc_cfg.metrics = &metrics;
    service = std::make_unique<ControllerService>(controller.get(), svc_cfg);
  }

  AppId SubmitJob() {
    return queue.Submit(factory->Create(sim.now())).id();
  }

  ControlEvent Event(ControlEventKind kind) {
    ControlEvent e;
    e.kind = kind;
    e.time = sim.now();
    return e;
  }
};

TEST(ControllerServiceTest, SingleArrivalRidesQuickDispatch) {
  ServiceWorld w;
  const AppId job = w.SubmitJob();
  PublishJobArrival(*w.service, w.sim, job);

  EXPECT_EQ(w.service->counters().quick_dispatches, 1u);
  EXPECT_EQ(w.service->counters().full_cycles, 0u);
  EXPECT_EQ(w.metrics.counter("svc.decisions.quick_dispatch").value(), 1u);
  EXPECT_EQ(w.queue.Find(job)->status(), JobStatus::kRunning);
}

TEST(ControllerServiceTest, ArrivalFloodIsLargeDrift) {
  // More pure arrivals than small_batch_events in one batch: quick dispatch
  // would re-scan the queue once per event anyway, so the service answers
  // with one full cycle.
  ControllerService::Config cfg;
  cfg.small_batch_events = 8;
  ServiceWorld w(cfg);
  for (int i = 0; i < 9; ++i) {
    ControlEvent e = w.Event(ControlEventKind::kJobArrival);
    e.job = w.SubmitJob();
    ASSERT_TRUE(w.service->Publish(e));
  }
  w.service->Pump(w.sim);

  EXPECT_EQ(w.service->counters().batches, 1u);
  EXPECT_EQ(w.service->counters().quick_dispatches, 0u);
  EXPECT_EQ(w.service->counters().full_cycles, 1u);
}

TEST(ControllerServiceTest, DuplicateFaultsCollapseToOneRepair) {
  ServiceWorld w;
  for (int i = 0; i < 9; ++i) w.SubmitJob();
  ControlEvent tick = w.Event(ControlEventKind::kTimerTick);
  w.service->Publish(tick);
  w.service->Pump(w.sim);  // place the system first

  // A flapping detector reports the same dead node three times before the
  // service gets to run: one repair, not three.
  w.cluster.SetNodeOffline(1);
  for (int i = 0; i < 3; ++i) {
    ControlEvent e = w.Event(ControlEventKind::kNodeFault);
    e.node = 1;
    ASSERT_TRUE(w.service->Publish(e));
  }
  w.service->Pump(w.sim);

  EXPECT_EQ(w.service->counters().repairs, 1u);
  EXPECT_EQ(w.service->counters().deduped, 2u);
  EXPECT_EQ(w.metrics.counter("svc.events_deduped").value(), 2u);
  EXPECT_EQ(w.metrics.counter("svc.decisions.repair").value(), 1u);
}

TEST(ControllerServiceTest, TicksCoalesceIntoOneCycle) {
  ServiceWorld w;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.service->Publish(w.Event(ControlEventKind::kTimerTick)));
  }
  w.service->Pump(w.sim);

  EXPECT_EQ(w.service->counters().full_cycles, 1u);
  EXPECT_EQ(w.service->counters().deduped, 2u);
}

TEST(ControllerServiceTest, TooManyDistinctFaultsEscalateToFullCycle) {
  ControllerService::Config cfg;
  cfg.max_fault_repairs = 2;
  ServiceWorld w(cfg, /*nodes=*/6);
  for (NodeId n = 1; n <= 3; ++n) {
    w.cluster.SetNodeOffline(n);
    ControlEvent e = w.Event(ControlEventKind::kNodeFault);
    e.node = n;
    ASSERT_TRUE(w.service->Publish(e));
  }
  w.service->Pump(w.sim);

  EXPECT_EQ(w.service->counters().repairs, 0u);
  EXPECT_EQ(w.service->counters().full_cycles, 1u);
}

TEST(ControllerServiceTest, EventTriggeredCyclesAreTaggedTicksAreNot) {
  ServiceWorld w;
  w.SubmitJob();
  w.service->Publish(w.Event(ControlEventKind::kTimerTick));
  w.service->Pump(w.sim);

  ControlEvent restore = w.Event(ControlEventKind::kNodeRestore);
  restore.node = 2;
  w.service->Publish(restore);
  w.service->Pump(w.sim);

  const std::vector<obs::CycleTrace> traces = w.recorder.Traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].trigger, "");  // periodic semantics stay untagged
  EXPECT_EQ(traces[1].trigger, "event");
}

TEST(ControllerServiceTest, InboxOverflowForcesFullCycle) {
  // Two arrivals fit, the third is shed: the drained batch no longer
  // reflects everything that happened, so even a tiny arrival batch must
  // re-read ground truth with a full cycle.
  ControllerService::Config cfg;
  cfg.inbox_capacity = 2;
  ServiceWorld w(cfg);
  for (int i = 0; i < 3; ++i) {
    ControlEvent e = w.Event(ControlEventKind::kJobArrival);
    e.job = w.SubmitJob();
    w.service->Publish(e);
  }
  EXPECT_EQ(w.service->inbox().dropped(), 1u);
  w.service->Pump(w.sim);

  EXPECT_EQ(w.service->counters().quick_dispatches, 0u);
  EXPECT_EQ(w.service->counters().full_cycles, 1u);
  EXPECT_EQ(w.metrics.counter("svc.events_shed").value(), 1u);
}

TEST(ControllerServiceTest, EventToDecisionLatencyIsObserved) {
  ServiceWorld w;
  const AppId job = w.SubmitJob();
  PublishJobArrival(*w.service, w.sim, job);
  w.service->Publish(w.Event(ControlEventKind::kTimerTick));
  w.service->Pump(w.sim);

  const obs::Histogram& h =
      w.metrics.histogram("svc.event_to_decision_seconds");
  EXPECT_EQ(h.count(), 2u);  // one arrival + one tick
  EXPECT_GE(h.Quantile(0.99), 0.0);
}

TEST(ControllerServiceTest, TxLoadShiftWatcherFiresOnlyPastThreshold) {
  ServiceWorld w;
  auto rate = std::make_shared<StepRate>(std::vector<StepRate::Step>{
      {0.0, 10.0}, {100.0, 11.0}, {200.0, 20.0}});
  WatchTxLoadShift(*w.service, w.sim, rate, /*tx_index=*/0,
                   /*sample_period=*/50.0, /*shift_fraction=*/0.25);

  w.sim.RunUntil(199.0);  // 10 → 11 is a 10% drift: below threshold
  EXPECT_EQ(w.service->counters().full_cycles, 0u);

  w.sim.RunUntil(301.0);  // 10 → 20 crosses 25%: one shift, re-anchored
  EXPECT_EQ(w.service->counters().full_cycles, 1u);
}

// No event is lost: a storm of every decision kind — ticks, arrivals,
// duplicate faults, a restore and an overflowing burst that sheds one event —
// is accounted for exactly once by the counters, the controller and the
// latency histogram.
TEST(ControllerServiceTest, MixedStormAccountsForEveryEvent) {
  ControllerService::Config cfg;
  cfg.inbox_capacity = 8;
  ServiceWorld w(cfg);
  AttachServiceTimer(*w.service, w.sim, /*first=*/0.0, /*period=*/100.0);
  w.sim.ScheduleAt(10.0, [&](Simulation& s) {
    for (int i = 0; i < 3; ++i) PublishJobArrival(*w.service, s, w.SubmitJob());
  });
  w.sim.ScheduleAt(20.0, [&](Simulation& s) {
    w.cluster.SetNodeOffline(1);
    ControlEvent fault = w.Event(ControlEventKind::kNodeFault);
    fault.node = 1;
    w.service->Publish(fault);  // a flapping detector reports it twice
    PublishNodeFault(*w.service, s, 1);
  });
  w.sim.ScheduleAt(30.0, [&](Simulation& s) {
    w.cluster.SetNodeOnline(1);
    PublishNodeRestore(*w.service, s, 1);
  });
  w.sim.ScheduleAt(40.0, [&](Simulation& s) {
    // One more arrival than the ring holds: the last one is shed.
    for (int i = 0; i < 9; ++i) {
      ControlEvent e = w.Event(ControlEventKind::kJobArrival);
      e.job = w.SubmitJob();
      w.service->Publish(e);
    }
    w.service->Pump(s);
    EXPECT_EQ(w.service->inbox().size(), 0u);
  });
  w.sim.ScheduleAt(150.0, [&](Simulation& s) {
    w.service->Publish(w.Event(ControlEventKind::kTimerTick));
    w.service->Publish(w.Event(ControlEventKind::kTimerTick));
    w.service->Pump(s);
  });
  w.sim.RunUntil(250.0);

  const ControllerService::Counters& c = w.service->counters();
  EXPECT_EQ(w.service->inbox().dropped(), 1u);
  EXPECT_EQ(w.metrics.counter("svc.events_shed").value(), 1u);
  EXPECT_EQ(c.quick_dispatches, 3u);
  EXPECT_EQ(c.repairs, 1u);
  // Ticks at 0, 100, 200, the restore, the overflowed burst, and the two
  // coalesced ticks at 150.
  EXPECT_EQ(c.full_cycles, 6u);
  EXPECT_EQ(c.deduped, 2u);  // the duplicate fault and the second tick

  // Every accepted event was decided by some batch; none is left queued.
  EXPECT_EQ(w.metrics.counter("svc.events").value(),
            w.service->inbox().pushed());
  EXPECT_EQ(w.service->inbox().size(), 0u);
  EXPECT_EQ(c.full_cycles, w.controller->cycles().size());
  EXPECT_EQ(w.metrics.histogram("svc.event_to_decision_seconds").count(),
            w.service->inbox().pushed());
}

// The tentpole's equivalence guarantee: an Experiment 1 run driven through
// the service (arrivals and ticks via the inbox, nothing else) commits the
// same decisions — and records byte-identical traces — as the periodic
// controller called directly. The only fields exempt from the byte
// comparison are the real-time solver stopwatches, which measure this
// machine, not the decision.
TEST(ControllerServiceTest, QuiescentServiceDriveIsBitExact) {
  auto run = [](bool drive_with_service) {
    obs::TraceRecorder recorder;
    Experiment1Config config;
    config.num_jobs = 12;
    config.num_nodes = 4;
    config.trace = &recorder;
    config.trace_run_id = "equiv";
    config.trace_full = true;
    config.drive_with_service = drive_with_service;
    const Experiment1Result result = RunExperiment1(config);
    EXPECT_EQ(result.completed, 12u);

    std::vector<obs::CycleTrace> traces = recorder.Traces();
    for (obs::CycleTrace& t : traces) {
      t.solver_seconds = 0.0;
      t.cell_solver_seconds.assign(t.cell_solver_seconds.size(), 0.0);
    }
    std::ostringstream os;
    obs::WriteTraceJsonl(os,
                         obs::MakeTraceContext("experiment1", config.seed,
                                               config.control_cycle, "equiv"),
                         traces);
    return os.str();
  };

  const std::string direct = run(false);
  const std::string via_service = run(true);
  EXPECT_FALSE(direct.empty());
  EXPECT_EQ(direct, via_service);
}

}  // namespace
}  // namespace mwp
