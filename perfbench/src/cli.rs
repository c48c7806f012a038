//! The strict command line: every flag given once, every value checked.
//! Anything else is an error, never a silent default.

use crate::workload::Workload;

/// One line of usage, printed with every argument error.
pub const USAGE: &str = "usage: perfbench --workload <table1|tight_clock|long_trip> \
                         --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// The longest measuring time a run accepts, in seconds.
pub const MAX_SECONDS: u64 = 3600;

/// A checked command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the kernel order within a pass.
    pub seed: u64,
    /// How long the untraced passes measure, in seconds.
    pub seconds: u64,
    /// `true` for the traced, layer-by-layer replay.
    pub trace: bool,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the first unknown, repeated, missing or malformed
/// argument.
pub fn parse<I>(args: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        let repeated = match flag.as_str() {
            "--workload" => workload.replace(value.parse::<Workload>()?).is_some(),
            "--seed" => seed.replace(parse_u64(&flag, &value)?).is_some(),
            "--seconds" => {
                let s = parse_u64(&flag, &value)?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..={MAX_SECONDS}"));
                }
                seconds.replace(s).is_some()
            }
            _ => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
                trace.replace(on).is_some()
            }
        };
        if repeated {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Decimal digits only: no sign, no blanks, no radix prefix.
fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("{flag} takes a whole number, not {value:?}"));
    }
    value
        .parse()
        .map_err(|_| format!("{flag} {value} does not fit in 64 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_a_full_command_line() {
        let a = args("--workload long_trip --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::LongTrip,
                seed: 7,
                seconds: 30,
                trace: true,
            }
        );
        // Order does not matter.
        let b = args("--trace 1 --seconds 30 --seed 7 --workload long_trip").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(args("--workload table2 --seed 1 --seconds 5 --trace 0").is_err());
        assert!(args("--workload table1 --seed 1 --seconds 5 --trace 0 --jobs 2").is_err());
        assert!(args("--workload=table1 --seed 1 --seconds 5 --trace 0").is_err());
    }

    #[test]
    fn rejects_malformed_numbers() {
        for bad in ["abc", "-1", "+1", "1.5", "", "0x10", "99999999999999999999"] {
            let line = format!("--workload table1 --seed {bad} --seconds 5 --trace 0");
            assert!(args(&line).is_err(), "seed {bad:?} accepted");
        }
        assert!(args("--workload table1 --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload table1 --seed 1 --seconds 3601 --trace 0").is_err());
        assert!(args("--workload table1 --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload table1 --seed 1 --seconds 5 --trace yes").is_err());
    }

    #[test]
    fn rejects_missing_and_repeated_flags() {
        assert!(args("--workload table1 --seed 1 --seconds 5").is_err());
        assert!(args("--workload table1 --seed 1 --seconds 5 --trace").is_err());
        assert!(args("--workload table1 --seed 1 --seed 2 --seconds 5 --trace 0").is_err());
        assert!(args("").is_err());
    }
}
