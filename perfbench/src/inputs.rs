//! Seeded workload inputs. The served models are fixed (built from
//! [`MODEL_SEED`]); the workload seed varies only the request stream,
//! so the program under test receives nothing but the generated inputs.

use std::collections::HashMap;

use problp_bayes::{BayesNet, Evidence, VarId};
use problp_data::{synthetic_sensor_dataset, uiwads_like, unimib_like, Benchmark, SensorSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the served Alarm network and sensor classifiers.
pub const MODEL_SEED: u64 = 7;

/// How many recent readings of a stream a repeat draws from.
const HISTORY: usize = 512;

/// A sequence of requests over a table of distinct inputs: references
/// are computed once per distinct input, and the load generator's per-request
/// state is one index.
pub struct Stream<T> {
    pub distinct: Vec<T>,
    pub seq: Vec<u32>,
}

impl<T: std::hash::Hash + Eq + Clone> Stream<T> {
    pub fn from_items(items: impl IntoIterator<Item = T>) -> Self {
        let mut ids: HashMap<T, u32> = HashMap::new();
        let mut distinct = Vec::new();
        let seq = items
            .into_iter()
            .map(|item| {
                *ids.entry(item.clone()).or_insert_with(|| {
                    distinct.push(item);
                    (distinct.len() - 1) as u32
                })
            })
            .collect();
        Stream { distinct, seq }
    }
}

/// `n` forward samples of the Alarm network with the leaves observed:
/// the Alarm benchmark's evidence, drawn with the workload seed.
pub fn alarm_evidence(net: &BayesNet, seed: u64, n: usize) -> Stream<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let leaves = net.leaves();
    Stream::from_items((0..n).map(|_| {
        let sample = net.sample(&mut rng);
        leaves
            .iter()
            .map(|l| sample[l.index()])
            .collect::<Vec<usize>>()
    }))
}

/// Evidence observing `states` on `vars`.
pub fn evidence(var_count: usize, vars: &[VarId], states: &[usize]) -> Evidence {
    let mut e = Evidence::empty(var_count);
    for (&v, &s) in vars.iter().zip(states) {
        e.observe(v, s);
    }
    e
}

/// One of the paper's sensing classifiers, as served.
pub struct Sensor {
    /// Model id in the pool, and the tenant of its gateway token.
    pub model: &'static str,
    /// The generator spec of `problp-data`'s stand-in for the dataset.
    pub spec: SensorSpec,
    /// Trains the benchmark's naive-Bayes classifier.
    pub build: fn(u64) -> Benchmark,
    /// The stand-in dataset the classifier is trained on.
    like: fn(u64) -> problp_bayes::LabeledDataset,
}

/// The UniMiB and UIWADS classifiers. HAR is left out: its 1-lane
/// conditional costs ~0.3 ms per dispatch and would make the sensor
/// workload an engine workload.
pub const SENSORS: [Sensor; 2] = [
    Sensor {
        model: "unimib",
        spec: SensorSpec {
            classes: 9,
            features: 8,
            bins: 4,
            instances: 2000,
            separation: 2.6,
        },
        build: problp_data::unimib_benchmark,
        like: unimib_like,
    },
    Sensor {
        model: "uiwads",
        spec: SensorSpec {
            classes: 2,
            features: 6,
            bins: 4,
            instances: 1500,
            separation: 2.0,
        },
        build: problp_data::uiwads_benchmark,
        like: uiwads_like,
    },
];

/// A sensor stream's readings for `n` requests: with probability ½ the
/// next reading repeats one of the stream's last 512 readings, otherwise
/// it is a fresh draw from the sensor model the classifier was trained
/// on. Fresh draws are rows the generator produces after the training
/// data, starting at a seed-chosen offset.
pub fn sensor_readings(sensor: &Sensor, seed: u64, n: usize) -> Stream<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed ^ fnv(sensor.model));
    // Repeat or fresh is decided first, so exactly the fresh rows
    // needed are generated.
    let repeats: Vec<bool> = (0..n).map(|i| i > 0 && rng.random_bool(0.5)).collect();
    let fresh = repeats.iter().filter(|r| !**r).count();
    let offset = rng.random_range(0..4096usize);
    let base = sensor.spec.instances;
    let data = synthetic_sensor_dataset(
        MODEL_SEED,
        SensorSpec {
            instances: base + offset + fresh,
            ..sensor.spec
        },
    );
    // Same seed and spec: the first rows are the classifier's own data,
    // so the rows after them are fresh draws from the same model.
    let trained = (sensor.like)(MODEL_SEED);
    assert_eq!(
        &data.features()[..base],
        trained.features(),
        "the {} spec must match problp-data's generator",
        sensor.model
    );
    let mut fresh_rows = data.features()[base + offset..].iter();
    let mut history: Vec<Vec<usize>> = Vec::with_capacity(HISTORY);
    let mut next_slot = 0;
    Stream::from_items(repeats.iter().map(|&repeat| {
        let reading = if repeat {
            history[rng.random_range(0..history.len())].clone()
        } else {
            fresh_rows
                .next()
                .expect("one fresh row per fresh draw")
                .clone()
        };
        if history.len() < HISTORY {
            history.push(reading.clone());
        } else {
            history[next_slot] = reading.clone();
            next_slot = (next_slot + 1) % HISTORY;
        }
        reading
    }))
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_bayes::networks;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a = sensor_readings(&SENSORS[1], 1, 2000);
        let b = sensor_readings(&SENSORS[1], 1, 2000);
        let c = sensor_readings(&SENSORS[1], 2, 2000);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.distinct, b.distinct);
        assert!(a.distinct != c.distinct || a.seq != c.seq);
        assert_eq!(a.seq.len(), 2000);
        assert!(a.distinct.len() < 2000, "repeats share distinct entries");
    }

    #[test]
    fn alarm_evidence_observes_every_leaf() {
        let net = networks::alarm(MODEL_SEED);
        let s = alarm_evidence(&net, 3, 64);
        assert_eq!(s.seq.len(), 64);
        assert!(s.distinct.iter().all(|d| d.len() == net.leaves().len()));
    }
}
