//! Small numeric helpers and the process CPU clock.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (any order);
/// 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Shifted geometric mean: `exp(mean(ln(x + shift))) - shift`.
pub fn shifted_geomean(values: &[f64], shift: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean_ln = values.iter().map(|x| (x + shift).ln()).sum::<f64>() / values.len() as f64;
    mean_ln.exp() - shift
}

/// `num / den`, or 0 when `den` is 0 (a layer that never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so field n sits at index n - 3.
    let tick = |n: usize| -> Result<f64, String> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/self/stat field {n}"))
    };
    Ok(tick(14)? + tick(15)?)
}
