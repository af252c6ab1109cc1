// Simulation adapters for the event-driven controller service.
//
// Existing experiments drive the controller through direct calls
// (SchedulePeriodic → RunCycle, workload source → OnJobSubmitted, fault
// listener → OnNodeFault). These adapters reroute the same simulation
// signals through the service's inbox instead — publish, then Pump — so an
// experiment can switch between the periodic controller and the
// event-driven service with one flag and compare decisions. Each adapter
// is a free function that registers simulation events; the service and
// controller must outlive the simulation run. Completions need no adapter:
// the controller's own completion watch refills freed capacity.
#pragma once

#include <memory>

#include "sim/simulation.h"
#include "svc/controller_service.h"
#include "web/workload_generator.h"

namespace mwp {

/// Periodic control-cycle tick through the inbox: the service-mode
/// equivalent of ApcController::Attach. Publishes a kTimerTick and pumps
/// every `period` starting at `first`.
void AttachServiceTimer(ControllerService& service, Simulation& sim,
                        Seconds first, Seconds period);

/// Publish a job arrival at the simulation's current instant and pump.
/// Call where the experiment used to call controller.OnJobSubmitted(sim),
/// after submitting the job to the queue.
void PublishJobArrival(ControllerService& service, Simulation& sim,
                       AppId job);

/// Publish a node fault at the simulation's current instant and pump.
/// Call from a FaultListener where the experiment used to call
/// controller.OnNodeFault(sim).
void PublishNodeFault(ControllerService& service, Simulation& sim,
                      NodeId node);

/// Publish a node restore and pump (forces a full cycle so the optimizer
/// reclaims the returned capacity sub-cycle instead of at the next tick).
void PublishNodeRestore(ControllerService& service, Simulation& sim,
                        NodeId node);

/// Watch a transactional app's arrival-rate profile: every
/// `sample_period`, compare the profile's current rate against the rate at
/// the last decision; when the relative change exceeds `shift_fraction`,
/// publish a kTxLoadShift and pump (forcing a full cycle). Returns the
/// periodic event handle. `tx_index` is the app's registration index in
/// the controller.
EventHandle WatchTxLoadShift(ControllerService& service, Simulation& sim,
                             std::shared_ptr<const ArrivalRateProfile> rate,
                             int tx_index, Seconds sample_period,
                             double shift_fraction, Seconds first = 0.0);

}  // namespace mwp
